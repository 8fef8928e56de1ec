package sim

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/obs"
)

// samplerColumns is the epoch time-series schema, in export order.
var samplerColumns = []string{
	"sample",
	"cycle",
	"instructions",
	"ipc",
	"l1_tlb_mpki",
	"l2_tlb_mpki",
	"pom_hit_rate",
	"page_walks",
	"context_switches",
	"l2_data_ways",
	"l3_data_ways",
	"l3_tlb_way_frac",
	"dram_queue_wait_mean",
	"sdat",
	"str",
	"switch_induced_misses",
	"cross_asid_evictions",
	"phase_boundaries",
}

// sampleBase holds the running totals a sampling epoch is differenced
// against; it is re-captured at the warmup boundary, where resetStats
// zeroes the component counters underneath it.
type sampleBase struct {
	instructions    uint64
	cycle           uint64
	l1TLBMisses     uint64
	l2TLBMisses     uint64
	pomHits         uint64
	pomAccesses     uint64
	pageWalks       uint64
	contextSwitches uint64
	queueWaitSum    uint64
	queueWaitN      uint64

	// Attribution plane totals; zero when no plane is attached.
	switchMisses    uint64
	crossEvictions  uint64
	phaseBoundaries uint64
}

// AttachObserver wires an observer into an already constructed system:
// tracers onto every event source, metric groups for every component, and
// the epoch sampler's baseline. Call it after New and before Run; a nil or
// empty observer leaves the system exactly as it was. The registry reads
// live counters, so snapshots taken mid-run or post-run both work.
func (s *System) AttachObserver(o *obs.Observer) {
	if !o.Enabled() {
		return
	}
	s.obs = o

	if t := o.Tracer; t != nil {
		for _, c := range s.cores {
			c.SetTrace(t)
		}
		for _, ctl := range s.mem.l2ctl {
			ctl.SetTrace(t)
		}
		s.mem.l3ctl.SetTrace(t)
		if s.mem.pom != nil {
			s.mem.pom.SetTrace(t)
		}
	}

	if r := o.Registry; r != nil {
		s.registerMetrics(r)
	}

	if o.Sampler != nil {
		s.sampleEvery = o.SampleEvery
		if s.sampleEvery == 0 {
			// Aim for ~DefaultSamplerCapacity/2 samples before the first
			// downsampling halving kicks in.
			total := s.cfg.MaxRefsPerCore * uint64(s.cfg.Cores)
			s.sampleEvery = total / (obs.DefaultSamplerCapacity / 2)
			if s.sampleEvery == 0 {
				s.sampleEvery = 1
			}
		}
		s.captureBase()
	}
}

// registerMetrics publishes every component's counters under name-spaced
// groups: core.N, tlb.<name>, tlb.pom, cache.<name>, csalt.<name>,
// dram.<name>, walker.N, and the hierarchy-wide sim group.
func (s *System) registerMetrics(r *obs.Registry) {
	m := s.mem
	for i, c := range s.cores {
		c.RegisterMetrics(r.Group(fmt.Sprintf("core.%d", i)))
	}
	seenL2TLB := make(map[string]bool)
	for i := range m.l1tlb {
		m.l1tlb[i].RegisterMetrics(r.Group("tlb." + m.l1tlb[i].Name()))
		m.l1tlb2[i].RegisterMetrics(r.Group("tlb." + m.l1tlb2[i].Name()))
		// A shared L2 TLB appears once per core in the slice.
		if name := m.l2tlb[i].Name(); !seenL2TLB[name] {
			seenL2TLB[name] = true
			m.l2tlb[i].RegisterMetrics(r.Group("tlb." + name))
		}
	}
	if m.pom != nil {
		m.pom.RegisterMetrics(r.Group("tlb.pom"))
	}
	for i := range m.l1d {
		m.l1d[i].RegisterMetrics(r.Group("cache." + m.l1d[i].Name()))
		m.l2[i].RegisterMetrics(r.Group("cache." + m.l2[i].Name()))
		m.l2ctl[i].RegisterMetrics(r.Group("csalt." + m.l2[i].Name()))
	}
	m.l3.RegisterMetrics(r.Group("cache." + m.l3.Name()))
	m.l3ctl.RegisterMetrics(r.Group("csalt." + m.l3.Name()))
	m.ddr.RegisterMetrics(r.Group("dram." + m.ddr.Name()))
	m.stacked.RegisterMetrics(r.Group("dram." + m.stacked.Name()))
	for i, w := range m.walkers {
		w.RegisterMetrics(r.Group(fmt.Sprintf("walker.%d", i)))
	}

	g := r.Group("sim")
	g.Counter("l2_tlb_misses", func() uint64 { return m.Stats.L2TLBMisses.Value() })
	g.Counter("page_walks", func() uint64 { return m.Stats.PageWalks.Value() })
	g.Gauge("translate_after_l2_miss_mean", func() float64 { return m.Stats.TranslateAfterL2Miss.Mean() })
	g.Gauge("l2_tlb_line_occupancy", func() float64 { return m.Stats.L2Occupancy.Mean() })
	g.Gauge("l3_tlb_line_occupancy", func() float64 { return m.Stats.L3Occupancy.Mean() })
}

// totals gathers the running sums the sampler differences.
func (s *System) totals() sampleBase {
	m := s.mem
	var b sampleBase
	for i, c := range s.cores {
		b.instructions += c.Stats.Instructions.Value()
		b.contextSwitches += c.Stats.ContextSwitches.Value()
		if cyc := c.Cycle(); cyc > b.cycle {
			b.cycle = cyc
		}
		b.l1TLBMisses += m.l1tlb[i].Accesses.Misses.Value() + m.l1tlb2[i].Accesses.Misses.Value()
	}
	seen := make(map[string]bool, len(m.l2tlb))
	for i := range m.l2tlb {
		if name := m.l2tlb[i].Name(); !seen[name] {
			seen[name] = true
			b.l2TLBMisses += m.l2tlb[i].Accesses.Misses.Value()
		}
	}
	if m.pom != nil {
		b.pomHits = m.pom.Accesses.Hits.Value()
		b.pomAccesses = m.pom.Accesses.Accesses()
	}
	b.pageWalks = m.Stats.PageWalks.Value()
	b.queueWaitSum = m.ddr.Stats.QueueWait.Sum() + m.stacked.Stats.QueueWait.Sum()
	b.queueWaitN = m.ddr.Stats.QueueWait.Total() + m.stacked.Stats.QueueWait.Total()
	if s.intro != nil {
		b.switchMisses = s.intro.TotalSwitchMisses()
		b.crossEvictions = s.intro.TotalCrossEvictions()
		b.phaseBoundaries = uint64(s.intro.PhaseCount())
	}
	return b
}

// captureBase re-anchors the sampler's deltas at the current totals.
func (s *System) captureBase() { s.sampleBase = s.totals() }

// ratio returns num/den as a float, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sample appends one epoch row to the sampler: deltas since the previous
// sample for flow metrics, instantaneous values for state (way splits,
// weights).
func (s *System) sample() {
	cur := s.totals()
	prev := s.sampleBase
	s.sampleBase = cur
	s.sampleSeq++

	dInstr := cur.instructions - prev.instructions
	dCycle := cur.cycle - prev.cycle

	m := s.mem
	l2ways := float64(m.l2[0].Partition())
	l3ways := float64(m.l3.Partition())
	l3frac := 0.0
	if n := m.l3.Partition(); n >= 0 {
		l3frac = float64(m.l3.Ways()-n) / float64(m.l3.Ways())
	}
	sDat, sTr := m.l3ctl.LastWeights()

	row := []float64{
		float64(s.sampleSeq),
		float64(cur.cycle),
		float64(dInstr),
		ratio(dInstr, dCycle),
		1000 * ratio(cur.l1TLBMisses-prev.l1TLBMisses, dInstr),
		1000 * ratio(cur.l2TLBMisses-prev.l2TLBMisses, dInstr),
		ratio(cur.pomHits-prev.pomHits, cur.pomAccesses-prev.pomAccesses),
		float64(cur.pageWalks - prev.pageWalks),
		float64(cur.contextSwitches - prev.contextSwitches),
		l2ways,
		l3ways,
		l3frac,
		ratio(cur.queueWaitSum-prev.queueWaitSum, cur.queueWaitN-prev.queueWaitN),
		sDat,
		sTr,
		float64(cur.switchMisses - prev.switchMisses),
		float64(cur.crossEvictions - prev.crossEvictions),
		float64(cur.phaseBoundaries - prev.phaseBoundaries),
	}
	s.obs.Sampler.Offer(row)
}

// SamplerColumns returns the epoch time-series schema, for callers building
// a sampler to attach.
func SamplerColumns() []string {
	cols := make([]string, len(samplerColumns))
	copy(cols, samplerColumns)
	return cols
}
