package introspect

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"github.com/csalt-sim/csalt/internal/obs"
)

// StructReport is one mirrored structure's attribution summary.
type StructReport struct {
	Name          string            `json:"name"`
	Hits          uint64            `json:"hits"`
	Misses        uint64            `json:"misses"`
	MissesByCause map[string]uint64 `json:"misses_by_cause"`
	Evictions     uint64            `json:"evictions"`
	// CrossASIDEvictions counts evictions performed on behalf of a
	// different address space than the entry's installer.
	CrossASIDEvictions uint64 `json:"cross_asid_evictions"`
	// MeanLifetimeGenerations is the mean number of context-switch
	// generations an entry survived before eviction (0 when nothing with
	// a known owner was evicted).
	MeanLifetimeGenerations float64 `json:"mean_lifetime_generations"`
}

// CoreReport is one core's cycle-attribution summary. The buckets sum to
// TotalCycles exactly (the invariant layer enforces it against the
// core's live counters).
type CoreReport struct {
	Core                  int               `json:"core"`
	ComputeCycles         uint64            `json:"compute_cycles"`
	TranslateStallCycles  uint64            `json:"translate_stall_cycles"`
	TranslateStallByCause map[string]uint64 `json:"translate_stall_by_cause"`
	DataStallCycles       uint64            `json:"data_stall_cycles"`
	DrainCycles           uint64            `json:"drain_cycles"`
	TotalCycles           uint64            `json:"total_cycles"`
}

// DRAMReport attributes one device's bank queueing delay by access class.
type DRAMReport struct {
	Name              string            `json:"name"`
	QueueWaitCycles   map[string]uint64 `json:"queue_wait_cycles"`
	QueueWaitAccesses map[string]uint64 `json:"queue_wait_accesses"`
}

// WalkDepth is one page-walk depth bucket.
type WalkDepth struct {
	Depth  int    `json:"depth"`
	Walks  uint64 `json:"walks"`
	Cycles uint64 `json:"cycles"`
}

// WalkReport attributes one walker's completed walks by memory-access
// depth.
type WalkReport struct {
	Name    string      `json:"name"`
	ByDepth []WalkDepth `json:"by_depth"`
}

// LedgerReport exports the damage ledger: totals, the retained closed
// scheduling windows, and each core's still-open window.
type LedgerReport struct {
	Totals  SwitchTotals   `json:"totals"`
	Records []SwitchRecord `json:"records"`
	Open    []SwitchRecord `json:"open"`
	Dropped uint64         `json:"records_dropped"`
}

// PhaseReport exports the phase detector's findings.
type PhaseReport struct {
	Windows    uint64          `json:"windows"`
	Boundaries []PhaseBoundary `json:"boundaries"`
	Dropped    uint64          `json:"boundaries_dropped"`
}

// Report is the plane's full attribution export. Slices follow wiring
// order and maps render through encoding/json's sorted keys, so the
// encoding is deterministic — the cross-engine equivalence tests compare
// it byte for byte.
type Report struct {
	Structures []StructReport `json:"structures"`
	Cores      []CoreReport   `json:"cores"`
	DRAM       []DRAMReport   `json:"dram"`
	Walkers    []WalkReport   `json:"walkers"`
	Ledger     LedgerReport   `json:"ledger"`
	Phases     PhaseReport    `json:"phases"`
}

// Report assembles the current attribution state.
func (p *Plane) Report() *Report {
	r := &Report{
		Structures: make([]StructReport, 0, len(p.probes)),
		Cores:      make([]CoreReport, 0, len(p.cores)),
		DRAM:       make([]DRAMReport, 0, len(p.drams)),
		Walkers:    make([]WalkReport, 0, len(p.walks)),
	}
	for _, pr := range p.probes {
		sr := StructReport{
			Name:               pr.name,
			Hits:               pr.hits,
			Misses:             pr.Misses(),
			MissesByCause:      make(map[string]uint64, NumCauses),
			Evictions:          pr.evictsTotal,
			CrossASIDEvictions: pr.crossEvicts,
		}
		for c := Cause(0); c < numCauses; c++ {
			sr.MissesByCause[c.String()] = pr.miss[c]
		}
		if pr.evictsTotal > 0 {
			sr.MeanLifetimeGenerations = float64(pr.genAgeSum) / float64(pr.evictsTotal)
		}
		r.Structures = append(r.Structures, sr)
	}
	for i := range p.cores {
		ca := &p.cores[i]
		cr := CoreReport{
			Core:                  i,
			ComputeCycles:         ca.compute,
			TranslateStallByCause: make(map[string]uint64, NumCauses),
			DataStallCycles:       ca.data,
			DrainCycles:           ca.drain,
		}
		for c := Cause(0); c < numCauses; c++ {
			cr.TranslateStallByCause[c.String()] = ca.translate[c]
			cr.TranslateStallCycles += ca.translate[c]
		}
		cr.TotalCycles = cr.ComputeCycles + cr.TranslateStallCycles + cr.DataStallCycles + cr.DrainCycles
		r.Cores = append(r.Cores, cr)
	}
	for _, d := range p.drams {
		r.DRAM = append(r.DRAM, DRAMReport{
			Name: d.name,
			QueueWaitCycles: map[string]uint64{
				"data":        d.wait[0],
				"translation": d.wait[1],
			},
			QueueWaitAccesses: map[string]uint64{
				"data":        d.waits[0],
				"translation": d.waits[1],
			},
		})
	}
	for _, w := range p.walks {
		wr := WalkReport{Name: w.name, ByDepth: []WalkDepth{}}
		for dep := 0; dep <= MaxWalkDepth; dep++ {
			if w.walks[dep] == 0 && w.cycles[dep] == 0 {
				continue
			}
			wr.ByDepth = append(wr.ByDepth, WalkDepth{Depth: dep, Walks: w.walks[dep], Cycles: w.cycles[dep]})
		}
		r.Walkers = append(r.Walkers, wr)
	}
	r.Ledger = LedgerReport{
		Totals:  p.ledger.totals,
		Records: append([]SwitchRecord{}, p.ledger.closed...),
		Open:    append([]SwitchRecord{}, p.ledger.open...),
		Dropped: p.ledger.dropped,
	}
	r.Phases = PhaseReport{
		Windows:    p.phase.window,
		Boundaries: append([]PhaseBoundary{}, p.phase.bounds...),
		Dropped:    p.phase.dropped,
	}
	return r
}

// WriteReport writes the attribution report as indented JSON.
func (p *Plane) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Report())
}

// HeatmapBuckets is the number of set-index buckets each structure's
// heatmap folds into in the CSV export (structures with fewer sets
// export one row per set).
const HeatmapBuckets = 64

// WriteHeatmapCSV writes the per-set occupancy/contention heatmaps as
// CSV: structure, bucket index, sets folded into the bucket, then the
// access/miss/eviction counts summed over those sets.
func (p *Plane) WriteHeatmapCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"structure", "bucket", "sets", "accesses", "misses", "evictions"}); err != nil {
		return err
	}
	for _, pr := range p.probes {
		buckets := HeatmapBuckets
		if pr.sets < buckets {
			buckets = pr.sets
		}
		for b := 0; b < buckets; b++ {
			lo := b * pr.sets / buckets
			hi := (b + 1) * pr.sets / buckets
			var acc, miss, evict uint64
			for s := lo; s < hi; s++ {
				acc += pr.heatAcc[s]
				miss += pr.heatMiss[s]
				evict += pr.heatEvict[s]
			}
			if err := cw.Write([]string{
				pr.name,
				fmt.Sprint(b),
				fmt.Sprint(hi - lo),
				fmt.Sprint(acc),
				fmt.Sprint(miss),
				fmt.Sprint(evict),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// RegisterMetrics publishes the plane's attribution counters into the
// metrics registry under "introspect.*" groups. Cause-split counters carry
// the cause as a bracketed label suffix ("misses[cause=capacity]").
func (p *Plane) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	for _, pr := range p.probes {
		pr := pr
		g := r.Group("introspect." + pr.name)
		g.Counter("hits", func() uint64 { return pr.hits })
		for c := Cause(0); c < numCauses; c++ {
			c := c
			g.Counter("misses[cause="+c.String()+"]", func() uint64 { return pr.miss[c] })
		}
		g.Counter("evictions", func() uint64 { return pr.evictsTotal })
		g.Counter("cross_asid_evictions", func() uint64 { return pr.crossEvicts })
	}
	for i := range p.cores {
		i := i
		g := r.Group(fmt.Sprintf("introspect.core.%d", i))
		g.Counter("compute_cycles", func() uint64 { return p.cores[i].compute })
		for c := Cause(0); c < numCauses; c++ {
			c := c
			g.Counter("translate_stall_cycles[cause="+c.String()+"]", func() uint64 { return p.cores[i].translate[c] })
		}
		g.Counter("data_stall_cycles", func() uint64 { return p.cores[i].data })
		g.Counter("drain_cycles", func() uint64 { return p.cores[i].drain })
	}
	for _, d := range p.drams {
		d := d
		g := r.Group("introspect." + d.name)
		g.Counter("queue_wait_cycles[class=data]", func() uint64 { return d.wait[0] })
		g.Counter("queue_wait_cycles[class=translation]", func() uint64 { return d.wait[1] })
		g.Counter("queue_waits[class=data]", func() uint64 { return d.waits[0] })
		g.Counter("queue_waits[class=translation]", func() uint64 { return d.waits[1] })
	}
	for _, w := range p.walks {
		w := w
		g := r.Group("introspect." + w.name)
		g.Counter("walks", func() uint64 {
			var n uint64
			for d := 0; d <= MaxWalkDepth; d++ {
				n += w.walks[d]
			}
			return n
		})
		g.Counter("walk_cycles", func() uint64 {
			var s uint64
			for d := 0; d <= MaxWalkDepth; d++ {
				s += w.cycles[d]
			}
			return s
		})
		g.Gauge("mean_walk_depth", func() float64 {
			var n, wd uint64
			for d := 0; d <= MaxWalkDepth; d++ {
				n += w.walks[d]
				wd += uint64(d) * w.walks[d]
			}
			if n == 0 {
				return 0
			}
			return float64(wd) / float64(n)
		})
	}
	g := r.Group("introspect.sim")
	g.Counter("context_switches", func() uint64 { return p.ledger.totals.Switches })
	g.Counter("cross_asid_evictions", func() uint64 { return p.ledger.totals.Evictions })
	g.Counter("switch_induced_misses", func() uint64 { return p.ledger.totals.SwitchMisses })
	g.Counter("switch_refill_cycles", func() uint64 { return p.ledger.totals.RefillCycles })
	g.Counter("phase_boundaries", func() uint64 { return p.PhaseCount() })
	g.Counter("generation", func() uint64 { return p.gen })
}
