package cache

// Profiler implements the paper's per-cache stack-distance profilers
// (§3.1): one Mattson LRU stack for data entries and one for TLB entries.
// CounterK+1 semantics follow the paper exactly — counters[t][i] counts
// hits that occurred at LRU stack position i for type t, and
// counters[t][ways] counts misses.
//
// Two operating modes:
//
//   - ATD mode (default): sampled sets carry an auxiliary tag directory per
//     type, maintained in true-LRU order with the cache's full
//     associativity. This gives exact "how many hits would N ways of this
//     type capture" counts regardless of the main cache's policy or current
//     partition, which is what the marginal-utility computation needs.
//   - Inline mode (§3.4): no ATDs; the profiler is fed estimated stack
//     positions derived from the main cache's replacement state (NRU bits
//     or BT-pLRU identifiers). Cheaper hardware, slightly noisier counters.
type Profiler struct {
	ways        int
	sampled     int // sampled sets (ATD mode)
	sampleShift uint
	inline      bool

	counters [numLineTypes][]uint64

	// ATD state, set-major: sampled set s owns slots [s*ways, (s+1)*ways)
	// of each type's directory, MRU first.
	atdTags  [numLineTypes][]uint64
	atdValid [numLineTypes][]bool
}

// NewProfiler creates an ATD-mode profiler for a sets x ways cache,
// profiling every 2^sampleShift-th set.
func NewProfiler(sets, ways int, sampleShift uint) *Profiler {
	sampled := sets >> sampleShift
	if sampled == 0 {
		sampled = 1
	}
	p := &Profiler{ways: ways, sampled: sampled, sampleShift: sampleShift}
	for t := 0; t < int(numLineTypes); t++ {
		p.counters[t] = make([]uint64, ways+1)
		p.atdTags[t] = make([]uint64, sampled*ways)
		p.atdValid[t] = make([]bool, sampled*ways)
	}
	return p
}

// NewInlineProfiler creates an inline-mode profiler (§3.4): it carries only
// the counters and must be fed positions via RecordPos/RecordMiss.
func NewInlineProfiler(ways int) *Profiler {
	p := &Profiler{ways: ways, inline: true}
	for t := 0; t < int(numLineTypes); t++ {
		p.counters[t] = make([]uint64, ways+1)
	}
	return p
}

// Inline reports whether the profiler runs in inline-estimate mode.
func (p *Profiler) Inline() bool { return p.inline }

// Ways returns the profiled associativity.
func (p *Profiler) Ways() int { return p.ways }

// sampledIndex maps a set to its ATD ordinal, or -1 if the set is not
// sampled.
func (p *Profiler) sampledIndex(set int) int {
	if set&((1<<p.sampleShift)-1) != 0 {
		return -1
	}
	idx := set >> p.sampleShift
	if idx >= p.sampled {
		return -1
	}
	return idx
}

// Access records one access in ATD mode: it finds the tag's stack position
// in the type's auxiliary directory, bumps the matching counter and updates
// the directory's LRU order.
func (p *Profiler) Access(set int, tag uint64, typ LineType) {
	if p.inline {
		return
	}
	s := p.sampledIndex(set)
	if s < 0 {
		return
	}
	base := s * p.ways
	tags := p.atdTags[typ][base : base+p.ways]
	valid := p.atdValid[typ][base : base+p.ways]
	pos := -1
	for i := 0; i < p.ways; i++ {
		if valid[i] && tags[i] == tag {
			pos = i
			break
		}
	}
	if pos < 0 {
		p.counters[typ][p.ways]++ // miss counter (CounterK+1)
		pos = p.ways - 1          // insert at MRU, dropping current LRU
	} else {
		p.counters[typ][pos]++
	}
	// Move-to-front: shift [0, pos) down one, place tag at MRU.
	copy(tags[1:pos+1], tags[0:pos])
	copy(valid[1:pos+1], valid[0:pos])
	tags[0], valid[0] = tag, true
}

// RecordPos records a hit at an estimated stack position (inline mode).
func (p *Profiler) RecordPos(typ LineType, pos int) {
	if pos < 0 {
		pos = 0
	}
	if pos >= p.ways {
		pos = p.ways - 1
	}
	p.counters[typ][pos]++
}

// RecordMiss records a miss (inline mode).
func (p *Profiler) RecordMiss(typ LineType) { p.counters[typ][p.ways]++ }

// Counter returns counters[typ][i]; i == Ways() is the miss counter.
func (p *Profiler) Counter(typ LineType, i int) uint64 { return p.counters[typ][i] }

// HitsUpTo sums the type's hit counters for stack positions [0, n) — the
// per-type term of Algorithm 2's marginal utility: predicted hits were the
// type given n ways.
func (p *Profiler) HitsUpTo(typ LineType, n int) uint64 {
	if n > p.ways {
		n = p.ways
	}
	var sum uint64
	for i := 0; i < n; i++ {
		sum += p.counters[typ][i]
	}
	return sum
}

// Accesses returns the type's total profiled accesses (all hits + misses).
func (p *Profiler) Accesses(typ LineType) uint64 {
	return p.HitsUpTo(typ, p.ways) + p.counters[typ][p.ways]
}

// Reset zeroes the counters at an epoch boundary; ATD contents persist so
// the next epoch starts warm.
func (p *Profiler) Reset() {
	for t := range p.counters {
		for i := range p.counters[t] {
			p.counters[t][i] = 0
		}
	}
}
