package main

import (
	"fmt"
	"time"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/tlb"
)

// step is one recorded core step: the Translate request and the
// AccessData that followed it.
type step struct {
	v     mem.VAddr
	pa    mem.PAddr
	asid  mem.ASID
	core  uint16
	write bool
}

// hitMiss is one structure's post-warmup hit and miss counts.
type hitMiss struct{ hits, misses uint64 }

// replayed is one layer replay's outcome: post-warmup counts per simulator
// structure name (as registered in the metrics registry) plus host time.
type replayed struct {
	counts map[string]hitMiss
	ops    uint64 // lookups (TLB) or accesses (L1D), whole stream
	ns     float64
}

// warmupTracker reproduces System.Run's warmup boundary: statistics reset
// right after the step on which the last core reaches WarmupRefs.
type warmupTracker struct {
	perCore []uint64
	warm    uint64
	reached int
	crossed bool
}

func newWarmupTracker(cfg sim.Config) *warmupTracker {
	return &warmupTracker{perCore: make([]uint64, cfg.Cores), warm: cfg.WarmupRefs, crossed: cfg.WarmupRefs == 0}
}

// stepped counts one step of core c and reports whether the boundary was
// crossed by it.
func (w *warmupTracker) stepped(c int) bool {
	if w.crossed {
		return false
	}
	w.perCore[c]++
	if w.perCore[c] == w.warm {
		w.reached++
	}
	if w.reached == len(w.perCore) {
		w.crossed = true
		return true
	}
	return false
}

// replayTLB plays the recorded Translate stream through fresh TLBs with
// the simulator's geometry, following memSystem.Translate's probe order
// and fill rule. Only 4 KB translations are modelled, so configurations
// backing data with native 2 MB pages are not replayable.
func replayTLB(cfg sim.Config, steps []step) replayed {
	flat := cfg.Engine != sim.EngineReference
	newTLB := func(entries, ways int) *tlb.TLB {
		return tlb.MustNew(tlb.Config{Entries: entries, Ways: ways, Latency: 1, Flat: flat})
	}
	l1, l1h, l2 := make([]*tlb.TLB, cfg.Cores), make([]*tlb.TLB, cfg.Cores), make([]*tlb.TLB, cfg.Cores)
	for c := range l1 {
		l1[c], l1h[c] = newTLB(64, 4), newTLB(32, 4)
		if cfg.SharedL2TLB && c > 0 {
			l2[c] = l2[0]
		} else {
			l2[c] = newTLB(1536, 12)
		}
	}
	wt := newWarmupTracker(cfg)
	var ops uint64
	t0 := time.Now()
	for _, s := range steps {
		c := int(s.core)
		frame := s.pa &^ (mem.PageSize4K - 1)
		ops++
		if _, _, hit := l1[c].Lookup(s.v, s.asid); !hit {
			ops++
			if _, _, hit := l1h[c].Lookup(s.v, s.asid); !hit {
				ops++
				if _, _, hit := l2[c].Lookup(s.v, s.asid); !hit {
					l2[c].Insert(s.v, s.asid, frame, mem.Page4K)
				}
				l1[c].Insert(s.v, s.asid, frame, mem.Page4K)
			}
		}
		if wt.stepped(c) {
			for i := range l1 {
				l1[i].ResetStats()
				l1h[i].ResetStats()
				l2[i].ResetStats()
			}
		}
	}
	out := replayed{ops: ops, ns: float64(time.Since(t0)), counts: map[string]hitMiss{}}
	for c := range l1 {
		for name, t := range map[string]*tlb.TLB{"l1tlb": l1[c], "l1tlb2m": l1h[c], "l2tlb": l2[c]} {
			if name == "l2tlb" && cfg.SharedL2TLB && c > 0 {
				continue // a shared L2 TLB registers once, as l2tlb0
			}
			out.counts[fmt.Sprintf("tlb.%s%d", name, c)] = hitMiss{t.Accesses.Hits.Value(), t.Accesses.Misses.Value()}
		}
	}
	return out
}

// replayL1D plays the recorded AccessData stream through fresh 32 KB 8-way
// L1D caches: a lookup, and a fill on a miss, as memSystem.Access does for
// data lines.
func replayL1D(cfg sim.Config, steps []step) replayed {
	flat := cfg.Engine != sim.EngineReference
	l1d := make([]*cache.Cache, cfg.Cores)
	for c := range l1d {
		l1d[c] = cache.MustNew(cache.Config{SizeKB: 32, Ways: 8, Latency: 4, Policy: cache.PolicyLRU, Flat: flat})
	}
	wt := newWarmupTracker(cfg)
	t0 := time.Now()
	for _, s := range steps {
		c := int(s.core)
		line := mem.LineAddr(s.pa)
		if !l1d[c].Lookup(line, cache.Data, s.write) {
			l1d[c].FillMissed(line, cache.Data, s.write)
		}
		if wt.stepped(c) {
			for _, l := range l1d {
				l.ResetStats()
			}
		}
	}
	out := replayed{ops: uint64(len(steps)), ns: float64(time.Since(t0)), counts: map[string]hitMiss{}}
	for c, l := range l1d {
		d := l.Stats.ByType[cache.Data]
		out.counts[fmt.Sprintf("cache.l1d%d", c)] = hitMiss{d.Hits.Value(), d.Misses.Value()}
	}
	return out
}

// replayable reports whether the TLB replay models cfg: it installs 4 KB
// translations only.
func replayable(cfg sim.Config) bool { return !(cfg.HugePages && !cfg.Virtualized) }

// recordAndReplay runs cfg once with the stream recorded and the metrics
// registry attached, replays the stream through the TLB and L1D layers,
// and checks that every replayed hit and miss count equals the
// simulator's own counter.
func recordAndReplay(cfg sim.Config, c *checks) (tlbRun, l1dRun replayed, digest string, err error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return
	}
	steps := make([]step, 0, int(totalRefs(cfg)))
	pr := &probe{rec: &steps}
	if err = pr.instrument(sys); err != nil {
		return
	}
	reg := obs.NewRegistry()
	sys.AttachObserver(&obs.Observer{Registry: reg})
	res, err := sys.Run()
	if err != nil {
		return
	}
	digest = digestOf(res)
	snap := reg.Snapshot()
	tlbRun, l1dRun = replayTLB(cfg, steps), replayL1D(cfg, steps)
	compare := func(r replayed, hitKey, missKey string) {
		for group, hm := range r.counts {
			got := snap[group]
			h, _ := got[hitKey].(float64)
			m, _ := got[missKey].(float64)
			c.check(got != nil && uint64(h) == hm.hits && uint64(m) == hm.misses,
				"%s %s replay: replayed %d/%d hits/misses, simulator %v/%v", cfg.Mix.ID, group, hm.hits, hm.misses, got[hitKey], got[missKey])
		}
	}
	compare(tlbRun, "hits", "misses")
	compare(l1dRun, "data_hits", "data_misses")
	return
}
