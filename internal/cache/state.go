package cache

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/stats"
)

// Snapshot export/import for the data caches. Line metadata serializes to
// the low half of the flat engine's packed word (tag<<3 | typ<<2 |
// dirty<<1 | valid) in both layouts; replacement state is captured per
// policy kind — the flat layout's true-LRU stamps export as the policy's
// sequence numbers — and the Mattson profilers' auxiliary tag directories
// are stored set-major, as they live. A restore reproduces exactly the
// resident lines, recency order, partition and counters the snapshot
// captured, so a resumed run's victim choices are bit-identical to an
// uninterrupted one's.

func hitRateState(h stats.HitRate) snapshot.HitRate {
	return snapshot.HitRate{Hits: h.Hits.Value(), Misses: h.Misses.Value()}
}

func loadHitRate(st snapshot.HitRate) stats.HitRate {
	return stats.HitRate{Hits: stats.Counter(st.Hits), Misses: stats.Counter(st.Misses)}
}

// savePolicy captures one replacement policy's mutable state.
func savePolicy(p Policy) snapshot.PolicyState {
	st := snapshot.PolicyState{Kind: p.Kind().String()}
	switch q := p.(type) {
	case *trueLRU:
		st.Seq = make([]uint64, len(q.seq))
		copy(st.Seq, q.seq)
		st.Next = q.next
	case *nru:
		st.Bits = make([]bool, len(q.bit))
		copy(st.Bits, q.bit)
	case *btplru:
		st.Bits = make([]bool, len(q.node))
		copy(st.Bits, q.node)
	}
	return st
}

// loadPolicy overlays a captured policy state onto a live policy of the
// same kind and geometry.
func loadPolicy(p Policy, st snapshot.PolicyState) error {
	if got := p.Kind().String(); got != st.Kind {
		return fmt.Errorf("policy is %s, snapshot holds %s", got, st.Kind)
	}
	switch q := p.(type) {
	case *trueLRU:
		if len(st.Seq) != len(q.seq) {
			return fmt.Errorf("lru snapshot has %d seqs, want %d", len(st.Seq), len(q.seq))
		}
		copy(q.seq, st.Seq)
		q.next = st.Next
	case *nru:
		if len(st.Bits) != len(q.bit) {
			return fmt.Errorf("nru snapshot has %d bits, want %d", len(st.Bits), len(q.bit))
		}
		copy(q.bit, st.Bits)
	case *btplru:
		if len(st.Bits) != len(q.node) {
			return fmt.Errorf("bt-plru snapshot has %d nodes, want %d", len(st.Bits), len(q.node))
		}
		copy(q.node, st.Bits)
	}
	return nil
}

// checkStamps validates a true-LRU policy snapshot for a flat cache's n
// stamped words: every sequence number, and the counter, must fit a
// 32-bit stamp.
func checkStamps(st snapshot.PolicyState, n int) error {
	if want := PolicyLRU.String(); st.Kind != want {
		return fmt.Errorf("policy is %s, snapshot holds %s", want, st.Kind)
	}
	if len(st.Seq) != n {
		return fmt.Errorf("lru snapshot has %d seqs, want %d", len(st.Seq), n)
	}
	for _, seq := range st.Seq {
		if seq >= stampLimit {
			return fmt.Errorf("lru snapshot seq %d does not fit a 32-bit stamp", seq)
		}
	}
	if st.Next > stampLimit {
		return fmt.Errorf("lru snapshot counter %d does not fit a 32-bit stamp", st.Next)
	}
	return nil
}

// SaveState exports the profiler's counters and (in ATD mode) the auxiliary
// tag directories, flattened set-major.
func (p *Profiler) SaveState() snapshot.ProfilerState {
	var st snapshot.ProfilerState
	for t := 0; t < int(numLineTypes); t++ {
		st.Counters[t] = make([]uint64, len(p.counters[t]))
		copy(st.Counters[t], p.counters[t])
		if p.inline {
			continue
		}
		st.ATDTags[t] = append([]uint64(nil), p.atdTags[t]...)
		st.ATDValid[t] = append([]bool(nil), p.atdValid[t]...)
	}
	return st
}

// LoadState overlays a captured profiler state onto a profiler of the same
// mode and geometry.
func (p *Profiler) LoadState(st snapshot.ProfilerState) error {
	for t := 0; t < int(numLineTypes); t++ {
		if len(st.Counters[t]) != len(p.counters[t]) {
			return fmt.Errorf("profiler snapshot has %d counters, want %d", len(st.Counters[t]), len(p.counters[t]))
		}
		if p.inline {
			if len(st.ATDTags[t]) != 0 {
				return fmt.Errorf("profiler snapshot carries ATDs, this profiler is inline")
			}
			continue
		}
		if n := len(p.atdTags[t]); len(st.ATDTags[t]) != n || len(st.ATDValid[t]) != n {
			return fmt.Errorf("profiler snapshot has %d/%d ATD slots, want %d",
				len(st.ATDTags[t]), len(st.ATDValid[t]), n)
		}
	}
	for t := 0; t < int(numLineTypes); t++ {
		copy(p.counters[t], st.Counters[t])
		if p.inline {
			continue
		}
		copy(p.atdTags[t], st.ATDTags[t])
		copy(p.atdValid[t], st.ATDValid[t])
	}
	return nil
}

// SaveState exports the cache's complete mutable state.
func (c *Cache) SaveState() snapshot.CacheState {
	n := c.sets * c.ways
	st := snapshot.CacheState{
		Words:      make([]uint64, n),
		Partition:  c.partition,
		Writebacks: c.Stats.Writebacks.Value(),
		Lookups:    c.Stats.Lookups.Value(),
	}
	for t := 0; t < int(numLineTypes); t++ {
		st.ByType[t] = hitRateState(c.Stats.ByType[t])
		st.Insertions[t] = c.Stats.Insertions[t].Value()
	}
	switch {
	case c.stamped:
		st.Policy = snapshot.PolicyState{Kind: PolicyLRU.String(), Seq: make([]uint64, n), Next: c.next}
		for i, wd := range c.words {
			st.Words[i] = wd & wordLine
			st.Policy.Seq[i] = wd >> wordStampSh
		}
	case c.flat:
		st.Policy = savePolicy(c.policy)
		copy(st.Words, c.words)
	default:
		st.Policy = savePolicy(c.policy)
		for i := range c.lines {
			ln := &c.lines[i]
			if ln.valid {
				st.Words[i] = packWord(ln.tag, ln.typ, ln.dirty)
			}
		}
	}
	if c.profiler != nil {
		ps := c.profiler.SaveState()
		st.Profiler = &ps
	}
	return st
}

// LoadState overwrites the cache's mutable state from a snapshot taken by
// a cache of the same geometry, policy and profiler mode (either layout).
func (c *Cache) LoadState(st snapshot.CacheState) error {
	n := c.sets * c.ways
	if len(st.Words) != n {
		return fmt.Errorf("cache %s: snapshot has %d line words, want %d", c.cfg.Name, len(st.Words), n)
	}
	for _, wd := range st.Words {
		if wd > wordLine {
			return fmt.Errorf("cache %s: snapshot line word %#x has a tag beyond 29 bits", c.cfg.Name, wd)
		}
	}
	if c.stamped {
		if err := checkStamps(st.Policy, n); err != nil {
			return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
		}
	} else if err := loadPolicy(c.policy, st.Policy); err != nil {
		return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
	}
	if (c.profiler != nil) != (st.Profiler != nil) {
		return fmt.Errorf("cache %s: snapshot profiler presence mismatch", c.cfg.Name)
	}
	if c.profiler != nil {
		if err := c.profiler.LoadState(*st.Profiler); err != nil {
			return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
		}
	}
	if c.flat {
		copy(c.words, st.Words)
		if c.stamped {
			for i, seq := range st.Policy.Seq {
				c.words[i] |= seq << wordStampSh
			}
			c.next = st.Policy.Next
		}
	} else {
		for i, wd := range st.Words {
			if wd&wordValid == 0 {
				c.lines[i] = line{}
				continue
			}
			c.lines[i] = line{
				tag:   wd >> wordTagSh,
				valid: true,
				dirty: wd&wordDirty != 0,
				typ:   wordType(wd),
			}
		}
	}
	c.partition = st.Partition
	for t := 0; t < int(numLineTypes); t++ {
		c.Stats.ByType[t] = loadHitRate(st.ByType[t])
		c.Stats.Insertions[t] = stats.Counter(st.Insertions[t])
	}
	c.Stats.Writebacks = stats.Counter(st.Writebacks)
	c.Stats.Lookups = stats.Counter(st.Lookups)
	return nil
}
