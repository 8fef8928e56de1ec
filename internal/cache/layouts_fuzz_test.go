package cache

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// FuzzCacheLayouts is the package-level differential test of the flat
// layout against the reference layout: both are built from one shape and
// driven through the same random operation sequence, and every observable
// result must agree — hits, writebacks, statistics, resident line words,
// occupancy scans, profiler counters, the within-set recency order of the
// replacement state, and the tag-range panic.
//
// The flat true-LRU counter starts a few stamps short of 2^32, so the
// re-rank runs early in most sequences while FillAt demotes have left
// zero-stamp ties behind; a re-rank that merges or splits ties, or a
// victim scan that takes the last minimum instead of the first, diverges
// here. Addresses cluster on a few sets and tags so sets stay full and
// victims are contested.
//
// Shape bits: ways 1..16, policy, profiler mode (none, ATD, inline),
// profiler sample shift, 16 or 32 sets, and the counter's distance from
// the wrap. Each op is three bytes: opcode, then two argument bytes.
//
//	go test ./internal/cache/ -run '^$' -fuzz FuzzCacheLayouts -fuzztime 30s
func FuzzCacheLayouts(f *testing.F) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 48; i++ {
		ops := make([]byte, 1500)
		for j := range ops {
			ops[j] = byte(next())
		}
		f.Add(uint32(next()), ops)
	}
	f.Fuzz(func(t *testing.T, shape uint32, ops []byte) {
		runLayouts(t, shape, ops)
	})
}

// layoutPair is one shape built in both layouts.
type layoutPair struct {
	cfg       Config
	ref, flat *Cache
}

func newLayoutPair(shape uint32) *layoutPair {
	ways := 1 + int(shape%16)
	cfg := Config{
		Name:   "fuzz",
		SizeKB: ways << (shape >> 10 & 1), // 16 or 32 sets
		Ways:   ways,
		Policy: PolicyKind(shape >> 4 % 3),
	}
	if cfg.Policy == PolicyBTPLRU && ways&(ways-1) != 0 {
		cfg.Policy = PolicyLRU
	}
	switch shape >> 6 % 3 {
	case 1:
		cfg.Profiled = true
		cfg.ProfilerSampleShift = uint(shape >> 8 % 3)
	case 2:
		cfg.Profiled, cfg.InlineProfiler = true, true
	}
	p := &layoutPair{cfg: cfg, ref: MustNew(cfg)}
	fcfg := cfg
	fcfg.Flat = true
	p.flat = MustNew(fcfg)
	if p.flat.stamped {
		p.flat.next = stampLimit - uint64(shape>>11%64)
	}
	return p
}

// addr builds an address from two argument bytes: one of five sets, a tag
// among a few more than the associativity, or (a = 255) a tag beyond the
// 29-bit range.
func (p *layoutPair) addr(a, b byte) mem.PAddr {
	set := uint64(a % 5)
	tag := uint64(b) % uint64(p.cfg.Ways+3)
	if b == 255 {
		tag = tagLimit + uint64(a)
	}
	return mem.PAddr((tag<<p.ref.setShift | set) << mem.LineShift)
}

func runLayouts(t *testing.T, shape uint32, ops []byte) {
	p := newLayoutPair(shape)
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := ops[i+1], ops[i+2]
		addr := p.addr(a, b)
		typ := LineType(a >> 7)
		flagA, flagB := a>>6&1 != 0, a>>5&1 != 0
		if b == 255 {
			// Out-of-range tag: both layouts must refuse it.
			for _, c := range []*Cache{p.ref, p.flat} {
				if !panics(func() { c.Peek(addr) }) || !panics(func() { c.Fill(addr, typ, flagA) }) {
					t.Fatalf("op %d: tag beyond 29 bits (%#x) did not panic", i/3, addr)
				}
			}
			continue
		}
		// Failure messages name the op and its operands: address, type,
		// and the write/dirty and promote flags.
		var what string
		differ := func(r, f any) {
			t.Helper()
			if r != f {
				t.Fatalf("op %d %s(%#x, %v, %v, %v): reference %+v, flat %+v", i/3, what, addr, typ, flagA, flagB, r, f)
			}
		}
		switch ops[i] % 12 {
		case 0, 1, 2:
			what = "Lookup"
			differ(p.ref.Lookup(addr, typ, flagA), p.flat.Lookup(addr, typ, flagA))
		case 3:
			what = "Fill"
			differ(p.ref.Fill(addr, typ, flagA), p.flat.Fill(addr, typ, flagA))
		case 4:
			if p.ref.Peek(addr) {
				continue
			}
			what = "FillMissed"
			differ(p.ref.FillMissed(addr, typ, flagA), p.flat.FillMissed(addr, typ, flagA))
		case 5:
			what = "FillAt"
			differ(p.ref.FillAt(addr, typ, flagA, flagB), p.flat.FillAt(addr, typ, flagA, flagB))
		case 6, 7:
			// Demotes are what create recency ties: favour them.
			if p.ref.Peek(addr) {
				continue
			}
			what = "FillAtMissed"
			flagB = flagB && ops[i]&1 == 0
			differ(p.ref.FillAtMissed(addr, typ, flagA, flagB), p.flat.FillAtMissed(addr, typ, flagA, flagB))
		case 8:
			what = "MarkDirty"
			differ(p.ref.MarkDirty(addr), p.flat.MarkDirty(addr))
		case 9:
			what = "SetPartition"
			n := int(a%byte(p.cfg.Ways+2)) - 1
			p.ref.SetPartition(n)
			p.flat.SetPartition(n)
		case 10:
			if b%8 != 0 {
				continue
			}
			what = "Flush"
			p.ref.Flush()
			p.flat.Flush()
		case 11:
			// No operation, only the full comparison below. The slot stays
			// so every other opcode keeps its number and the seed corpus
			// its meaning.
			what = "compare"
		}
		p.compare(t, i/3, what, p.ref.SetIndex(addr), ops[i]%12 >= 9)
	}
	p.compare(t, len(ops)/3, "end", 0, true)
}

// compare checks, after every op, the statistics, the profiler counters,
// and the lines and recency order of the set the op addressed. Every 32nd
// op, and after an op that reaches every set, it checks all sets, the
// occupancy scans and the NRU/BT-pLRU policy state as well.
func (p *layoutPair) compare(t *testing.T, op int, what string, set int, all bool) {
	t.Helper()
	if p.ref.Stats != p.flat.Stats {
		t.Fatalf("op %d %s: Stats diverged:\n  reference %+v\n  flat      %+v", op, what, p.ref.Stats, p.flat.Stats)
	}
	if rp := p.ref.Profiler(); rp != nil {
		fp := p.flat.Profiler()
		for _, typ := range []LineType{Data, Translation} {
			for k := 0; k <= rp.Ways(); k++ {
				if rc, fc := rp.Counter(typ, k), fp.Counter(typ, k); rc != fc {
					t.Fatalf("op %d %s: profiler %v counter %d: %d vs %d", op, what, typ, k, rc, fc)
				}
			}
		}
	}
	if !all && op%32 != 0 {
		p.compareSet(t, op, what, set)
		return
	}
	for s := 0; s < p.ref.sets; s++ {
		p.compareSet(t, op, what, s)
	}
	rt, rv := p.ref.Occupancy()
	ft, fv := p.flat.Occupancy()
	if rt != ft || rv != fv {
		t.Fatalf("op %d %s: Occupancy %d/%d vs %d/%d", op, what, rt, rv, ft, fv)
	}
	var r4, f4 [4]int
	r4[0], r4[1], r4[2], r4[3] = p.ref.TypeInWays()
	f4[0], f4[1], f4[2], f4[3] = p.flat.TypeInWays()
	if r4 != f4 {
		t.Fatalf("op %d %s: TypeInWays %v vs %v", op, what, r4, f4)
	}
	if p.cfg.Policy != PolicyLRU {
		// NRU and BT-pLRU keep the same Policy state in both layouts.
		if fmt.Sprint(p.ref.policy) != fmt.Sprint(p.flat.policy) {
			t.Fatalf("op %d %s: %s policy state diverged", op, what, p.cfg.Policy)
		}
	}
}

// compareSet checks one set's resident lines and, under true LRU, its
// recency order: the flat stamps are relabelled at the wrap, so order and
// ties are compared pairwise rather than the numbers themselves.
func (p *layoutPair) compareSet(t *testing.T, op int, what string, set int) {
	t.Helper()
	w := p.cfg.Ways
	base := set * w
	var ref, flat [16]uint64
	for i := 0; i < w; i++ {
		if ln := p.ref.lines[base+i]; ln.valid {
			ref[i] = packWord(ln.tag, ln.typ, ln.dirty)
		}
		flat[i] = p.flat.words[base+i] & wordLine
	}
	if ref != flat {
		t.Fatalf("op %d %s: set %d lines diverged:\n  reference %#x\n  flat      %#x", op, what, set, ref[:w], flat[:w])
	}
	if p.cfg.Policy != PolicyLRU {
		return
	}
	seq := p.ref.policy.(*trueLRU).seq[base : base+w]
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			fi, fj := p.flat.words[base+i]>>wordStampSh, p.flat.words[base+j]>>wordStampSh
			if cmpSeq(seq[i], seq[j]) != cmpSeq(fi, fj) {
				var stamps []uint64
				for _, wd := range p.flat.setWords(set) {
					stamps = append(stamps, wd>>wordStampSh)
				}
				t.Fatalf("op %d %s: set %d recency order diverged:\n  reference %v\n  flat      %v", op, what, set, seq, stamps)
			}
		}
	}
}

func cmpSeq(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestStampRerank pins the wrap directly: a set whose stamps straddle a
// Demote tie keeps its order and its tie through the re-rank, the counter
// resumes above the new ranks, and the first minimum stays the victim.
func TestStampRerank(t *testing.T) {
	c := MustNew(Config{Name: "wrap", SizeKB: 4, Ways: 4, Policy: PolicyLRU, Flat: true})
	c.next = stampLimit - 6
	for tag := 0; tag < 4; tag++ {
		c.Fill(addrFor(0, tag), Data, false) // stamps 2^32-6 .. 2^32-3
	}
	c.FillAt(addrFor(1, 0), Data, false, false)
	c.FillAt(addrFor(1, 1), Data, false, false) // two zero stamps in set 1
	if c.next != stampLimit {
		t.Fatalf("counter = %d, want the wrap point", c.next)
	}
	c.Lookup(addrFor(0, 2), Data, false) // takes the first stamp past the wrap
	stamps := func(set int) (out []uint64) {
		for _, wd := range c.setWords(set) {
			out = append(out, wd>>wordStampSh)
		}
		return out
	}
	if got, want := fmt.Sprint(stamps(0)), "[1 2 5 4]"; got != want {
		t.Errorf("set 0 stamps after re-rank = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(stamps(1)), "[0 0 0 0]"; got != want {
		t.Errorf("set 1 stamps after re-rank = %s, want %s", got, want)
	}
	if c.next != 6 {
		t.Errorf("counter after re-rank = %d, want 6", c.next)
	}
	// Set 1's two valid ways tie at stamp 0 with its two invalid ways; the
	// partition confines the victim to the two valid ones, and the first
	// of the tie must go.
	c.SetPartition(2)
	c.Fill(addrFor(1, 2), Data, false)
	if c.Peek(addrFor(1, 0)) || !c.Peek(addrFor(1, 1)) {
		t.Error("victim scan did not take the first way of the zero-stamp tie")
	}
}

// TestFlatLRUAllocatesNoSequenceArray: recency lives in the line words, so
// building a flat true-LRU L3 allocates its words and nothing of that size
// besides — no per-way sequence array.
func TestFlatLRUAllocatesNoSequenceArray(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := MustNew(Config{Name: "l3", SizeKB: 8192, Ways: 16, Policy: PolicyLRU, Flat: true})
	runtime.ReadMemStats(&after)
	words := uint64(len(c.words)) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got > words+words/8 {
		t.Fatalf("flat true-LRU L3 allocated %d bytes; its line words take %d", got, words)
	}
}
