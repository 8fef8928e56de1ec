package cache

import (
	"github.com/csalt-sim/csalt/internal/mem"
)

// Flat packed-word layout for cache line metadata, used by the fast
// simulation engine (sim.Config.Engine == "fast").
//
// The reference layout stores each line as a struct (tag, valid, dirty,
// typ) padded to 16 bytes and keeps true LRU's sequence numbers in a
// separate policy array, so a 16-way L3 victim pick walks four host lines
// of structs and then two more of sequence numbers. The flat layout packs
// a line's whole state, its recency included, into one uint64:
//
//	word = stamp<<32 | tag<<3 | typ<<2 | dirty<<1 | valid
//
// Lookup, victim pick, touch, demote and the inline profiler's stack
// position read and write only the set's own words: one 64-bit load and a
// masked compare per way, and a 16-way set spans two host lines.
//
// The stamp is true LRU's sequence number. A per-cache counter starting at
// 1 stamps every touch and fill, Demote writes 0, the victim is the first
// way in [lo, hi) with the smallest stamp, and StackPos counts the other
// ways with a larger stamp. When the counter would reach 2^32, rerank
// relabels every set's nonzero stamps 1..k in order (zero stamps stay
// zero, so Demote ties survive) and counting resumes above the largest
// rank; stamps are only compared within a set, so the relabel changes no
// simulated decision. NRU and BT-pLRU keep their state behind the Policy
// interface and leave the stamp bits zero.
//
// Tags must fit the 29 bits between the flags and the stamp; index panics
// on a larger one in both layouts. The simulated physical map stays below
// 2^38 (host RAM, POM and TSB regions), and even the 64-set L1D accepts
// addresses up to 2^41.
//
// Semantics (match condition, victim choice, refresh, statistics, profiler
// and policy interaction) mirror the reference layout exactly:
// FuzzCacheLayouts drives both layouts through random operation sequences,
// and the differential equivalence suite in internal/sim asserts
// bit-identical metrics.

const (
	wordValid   = 1 << 0
	wordDirty   = 1 << 1
	wordTyp     = 1 << 2
	wordTagSh   = 3
	wordStampSh = 32

	// wordLine masks a word's line state (tag and flags) off its stamp.
	wordLine = 1<<wordStampSh - 1
	// wordMatch masks the bits a probe compares: the tag and valid bit.
	wordMatch = wordLine &^ (wordDirty | wordTyp)
	// tagLimit bounds the tags the word can hold.
	tagLimit = 1 << (wordStampSh - wordTagSh)
	// stampLimit is the first stamp that no longer fits the word.
	stampLimit = 1 << (64 - wordStampSh)
)

// packWord builds the line state (stamp zero) of a valid line.
func packWord(tag uint64, typ LineType, dirty bool) uint64 {
	w := tag<<wordTagSh | uint64(typ)<<2 | wordValid
	if dirty {
		w |= wordDirty
	}
	return w
}

func wordType(w uint64) LineType { return LineType((w >> 2) & 1) }

func wordTag(w uint64) uint64 { return (w & wordLine) >> wordTagSh }

// setWords returns set's slice of the flat word array.
func (c *Cache) setWords(set int) []uint64 {
	base := set * c.ways
	return c.words[base : base+c.ways : base+c.ways]
}

// probeFlat returns the way of words holding tag, or -1.
func probeFlat(words []uint64, tag uint64) int {
	key := tag<<wordTagSh | wordValid
	for w, wd := range words {
		if wd&wordMatch == key {
			return w
		}
	}
	return -1
}

// nextStamp hands out the next recency stamp, re-ranking first when the
// counter has run out of stamp bits.
func (c *Cache) nextStamp() uint64 {
	if c.next == stampLimit {
		c.next = c.rerank()
	}
	s := c.next
	c.next++
	return s
}

// rerank relabels each set's nonzero stamps 1..k, preserving their order
// and ties (zero stamps stay zero), and returns the first stamp above
// every relabelled one.
func (c *Cache) rerank() uint64 {
	ranks := make([]uint64, c.ways)
	var top uint64
	for set := 0; set < c.sets; set++ {
		words := c.setWords(set)
		for w, wd := range words {
			s := wd >> wordStampSh
			ranks[w] = 0
			if s == 0 {
				continue
			}
			ranks[w] = 1
			for _, o := range words {
				if t := o >> wordStampSh; t != 0 && t < s {
					ranks[w]++
				}
			}
			top = max(top, ranks[w])
		}
		for w := range words {
			words[w] = words[w]&wordLine | ranks[w]<<wordStampSh
		}
	}
	return top + 1
}

// touchFlat records a hit or insertion of way in the replacement state.
// Identical to c.policy.Touch(set, way) (and Fill, which is Touch for
// every policy).
func (c *Cache) touchFlat(set int, words []uint64, way int) {
	if c.stamped {
		s := c.nextStamp()
		words[way] = words[way]&wordLine | s<<wordStampSh
		return
	}
	c.policy.Touch(set, way)
}

// demoteFlat forces way to the LRU end. Identical to
// c.policy.Demote(set, way).
func (c *Cache) demoteFlat(set int, words []uint64, way int) {
	if c.stamped {
		words[way] &= wordLine
		return
	}
	c.policy.Demote(set, way)
}

// victimFlat picks an eviction victim in [lo, hi). Identical to
// c.policy.Victim(set, lo, hi).
func (c *Cache) victimFlat(set int, words []uint64, lo, hi int) int {
	if !c.stamped {
		return c.policy.Victim(set, lo, hi)
	}
	victim, best := lo, words[lo]>>wordStampSh
	for w := lo + 1; w < hi; w++ {
		if s := words[w] >> wordStampSh; s < best {
			victim, best = w, s
		}
	}
	return victim
}

// stackPosFlat is way's recency position, 0 = MRU. Identical to
// c.policy.StackPos(set, way).
func (c *Cache) stackPosFlat(set int, words []uint64, way int) int {
	if !c.stamped {
		return c.policy.StackPos(set, way)
	}
	mine := words[way] >> wordStampSh
	pos := 0
	for w, wd := range words {
		if w != way && wd>>wordStampSh > mine {
			pos++
		}
	}
	return pos
}

func (c *Cache) lookupFlat(addr mem.PAddr, typ LineType, write bool) bool {
	set, tag := c.index(addr)
	if c.profiler != nil && !c.profiler.Inline() {
		c.profiler.Access(set, tag, typ)
	}
	words := c.setWords(set)
	if w := probeFlat(words, tag); w >= 0 {
		c.Stats.ByType[typ].Hit()
		if c.ip != nil {
			c.ip.Hit(set, c.lineKey(set, tag, typ))
		}
		if c.profiler != nil && c.profiler.Inline() {
			c.profiler.RecordPos(typ, c.stackPosFlat(set, words, w))
		}
		if write {
			words[w] |= wordDirty
		}
		c.touchFlat(set, words, w)
		return true
	}
	c.Stats.ByType[typ].Miss()
	if c.ip != nil {
		c.ip.Miss(set, c.lineKey(set, tag, typ))
	}
	if c.profiler != nil && c.profiler.Inline() {
		c.profiler.RecordMiss(typ)
	}
	return false
}

func (c *Cache) markDirtyFlat(addr mem.PAddr) bool {
	set, tag := c.index(addr)
	words := c.setWords(set)
	if w := probeFlat(words, tag); w >= 0 {
		words[w] |= wordDirty
		c.touchFlat(set, words, w)
		return true
	}
	return false
}

func (c *Cache) peekFlat(addr mem.PAddr) bool {
	set, tag := c.index(addr)
	return probeFlat(c.setWords(set), tag) >= 0
}

func (c *Cache) fillFlat(addr mem.PAddr, typ LineType, dirty bool) Writeback {
	set, tag := c.index(addr)
	words := c.setWords(set)
	// Already present (e.g. two outstanding misses to one line): refresh.
	if w := probeFlat(words, tag); w >= 0 {
		nw := words[w]&^wordTyp | uint64(typ)<<2
		if dirty {
			nw |= wordDirty
		}
		words[w] = nw
		c.touchFlat(set, words, w)
		return Writeback{}
	}
	return c.fillMissedFlat(set, tag, words, typ, dirty)
}

// fillMissedFlat is the fill tail after the refresh scan — or the whole
// fill when the caller has just proven the line absent (FillMissed).
func (c *Cache) fillMissedFlat(set int, tag uint64, words []uint64, typ LineType, dirty bool) Writeback {
	lo, hi := c.victimRange(typ)
	// Prefer an invalid way inside the range.
	victim := -1
	for w := lo; w < hi; w++ {
		if words[w]&wordValid == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.victimFlat(set, words, lo, hi)
	}
	wd := words[victim]
	var wb Writeback
	if wd&(wordValid|wordDirty) == wordValid|wordDirty {
		wb = Writeback{Addr: c.addrOf(set, wordTag(wd)), Typ: wordType(wd), Valid: true}
		c.Stats.Writebacks.Inc()
	}
	if c.ip != nil {
		if wd&wordValid != 0 {
			c.ip.EvictCur(set, c.lineKey(set, wordTag(wd), wordType(wd)))
		}
		c.ip.FillCur(set, c.lineKey(set, tag, typ))
	}
	words[victim] = packWord(tag, typ, dirty)
	c.Stats.Insertions[typ].Inc()
	c.touchFlat(set, words, victim)
	return wb
}

func (c *Cache) occupancyFlat() (tlbLines, validLines int) {
	for _, wd := range c.words {
		if wd&wordValid != 0 {
			validLines++
			if wordType(wd) == Translation {
				tlbLines++
			}
		}
	}
	return tlbLines, validLines
}

func (c *Cache) typeInWaysFlat(n int) (dataInDataWays, dataInTLBWays, tlbInDataWays, tlbInTLBWays int) {
	for s := 0; s < c.sets; s++ {
		for w, wd := range c.setWords(s) {
			if wd&wordValid == 0 {
				continue
			}
			inData := w < n
			switch {
			case wordType(wd) == Data && inData:
				dataInDataWays++
			case wordType(wd) == Data && !inData:
				dataInTLBWays++
			case wordType(wd) == Translation && inData:
				tlbInDataWays++
			default:
				tlbInTLBWays++
			}
		}
	}
	return
}
