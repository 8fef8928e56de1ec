package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/workload"
)

// benchWorkload is one named benchmark input. A single-simulation workload
// builds one configuration from the seed; the sweep (config == nil) runs
// every registered experiment through the engine.
type benchWorkload struct {
	name, why string
	config    func(seed uint64) sim.Config
}

// small returns the small-scale machine (8 cores, 2 contexts, scale 0.25)
// running mix under one organisation and partitioning scheme.
func small(mix workload.Mix, org sim.TranslationOrg, scheme core.Scheme) func(uint64) sim.Config {
	return func(seed uint64) sim.Config {
		cfg := experiment.Small.BaseConfig()
		cfg.Mix, cfg.Org, cfg.Scheme, cfg.Seed = mix, org, scheme, seed
		return cfg
	}
}

var workloads = []benchWorkload{
	{"gups_pom_cd", "two GUPS VMs on POM-TLB with CSALT-CD: translation misses travel as POM lines through L2/L3 while the partition controller repartitions",
		small(workload.Mix{ID: "gups", VM1: workload.GUPS, VM2: workload.GUPS}, sim.OrgPOM, core.CriticalityDynamic)},
	{"ccomp_conv", "two connectedcomponent VMs, conventional walker, no partitioning: every L2 TLB miss is a 2-D walk over map-backed page tables",
		small(workload.Mix{ID: "ccomp", VM1: workload.CComp, VM2: workload.CComp}, sim.OrgConventional, core.None)},
	{"stream_pom_d", "two streamcluster VMs on POM-TLB with CSALT-D: few TLB misses, so the generator and run loop dominate; control for translation work",
		small(workload.Mix{ID: "streamcluster", VM1: workload.StreamCluster, VM2: workload.StreamCluster}, sim.OrgPOM, core.Dynamic)},
	{"sweep_tiny", "every registered experiment at tiny scale through the engine with 2 workers: set-up heavy, and the only one reaching TSB, DIP, huge-page and 5-level configs",
		nil},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// digestOf fingerprints a run's results. %+v prints floats in their
// shortest round-tripping form, so equal digests mean equal results.
func digestOf(res *sim.Results) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))
	return hex.EncodeToString(sum[:])
}

// totalRefs is the number of memory references a configuration retires,
// warmup included.
func totalRefs(cfg sim.Config) float64 {
	return float64(cfg.Cores) * float64(cfg.MaxRefsPerCore)
}

// measuredRefs is the number of references after the warmup reset.
func measuredRefs(cfg sim.Config) float64 {
	return float64(cfg.Cores) * float64(cfg.MaxRefsPerCore-cfg.WarmupRefs)
}

// liveHeapMB collects garbage and returns the live heap in MB; callers keep
// what should be counted reachable across the call. A repetition reports
// the difference from the live heap at its start, so what earlier
// repetitions left reachable does not count.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rep is one repetition of a workload.
type rep struct {
	setup, run, wall float64 // host seconds; run is summed over simulations
	jobTime          float64 // summed per-simulation seconds (set-up + run)
	refs             float64 // references retired
	rate             float64 // references per second
	heapMB           float64
	digest           string
	workers          int

	jobs, memoHits int
	tables         map[string]string // sweep only
	results        []*sim.Results
	configs        []sim.Config
}

// workers is the number of concurrent clients: one per CPU, at most two.
// Two copies of a single simulation running side by side measure the
// host's throughput far more steadily than one copy next to an idle CPU.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runSingle builds and runs one copy of cfg per worker, the copies side by
// side: a closed loop with one client per CPU. Every copy must produce the
// same results. With probes (one per copy) each system is instrumented
// before its run, and heap is measured only on uninstrumented runs. prof,
// when non-nil, profiles the run phase alone.
func runSingle(cfg sim.Config, probes []*probe, prof *profiledSpan) (r rep, err error) {
	n := workers()
	var baseMB float64
	if probes == nil {
		baseMB = liveHeapMB()
	}
	t0 := time.Now()
	systems := make([]*sim.System, n)
	setup, runs := make([]float64, n), make([]float64, n)
	results := make([]*sim.Results, n)
	errs := make([]error, n)
	parallel(n, func(i int) {
		start := time.Now()
		systems[i], errs[i] = sim.New(cfg)
		setup[i] = time.Since(start).Seconds()
		if errs[i] == nil && probes != nil {
			errs[i] = probes[i].instrument(systems[i])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return rep{}, err
	}
	if prof != nil {
		if err := prof.start(); err != nil {
			return rep{}, err
		}
		// Stopping waits for the profile writer to drain; that wait is not
		// part of the repetition.
		defer func() {
			if perr := prof.stop(); perr != nil && err == nil {
				err = perr
			}
		}()
	}
	parallel(n, func(i int) {
		start := time.Now()
		results[i], errs[i] = systems[i].Run()
		runs[i] = time.Since(start).Seconds()
	})
	if err := errors.Join(errs...); err != nil {
		return rep{}, err
	}
	r = rep{
		digest:  digestOf(results[0]),
		workers: n,
		jobs:    n,
		results: results[:1],
		configs: []sim.Config{cfg},
	}
	span := 0.0 // the run phase lasts until the last copy finishes
	for i := range systems {
		if d := digestOf(results[i]); d != r.digest {
			return rep{}, fmt.Errorf("concurrent copy %d digest %.12s differs from copy 0's %.12s", i, d, r.digest)
		}
		r.setup += setup[i] / float64(n)
		r.run += runs[i]
		r.jobTime += setup[i] + runs[i]
		r.refs += totalRefs(cfg)
		span = math.Max(span, runs[i])
	}
	r.rate = r.refs / span
	r.wall = time.Since(t0).Seconds()
	if probes == nil {
		r.heapMB = (liveHeapMB() - baseMB) / float64(n)
		runtime.KeepAlive(systems)
	}
	return r, nil
}

// goldenTables are the sweep tables checked against the experiment
// package's golden snapshots.
var goldenTables = []string{"fig3", "fig8"}

// sweepHooks lets the traced sweep instrument every system the engine
// builds; both run on the simulating goroutine.
type sweepHooks struct {
	observe func(*sim.System)
	done    func(*sim.System)
}

// runSweep runs every registered experiment at tiny scale once. Set-up is
// each job's time minus its Observe→ObserveDone run span.
func runSweep(hooks *sweepHooks, prof *profiledSpan) (rep, error) {
	exps := experiment.All()
	n := workers()
	var baseMB float64
	if hooks == nil {
		baseMB = liveHeapMB()
	}
	t0 := time.Now()
	eng := experiment.NewEngine(experiment.Tiny, n)
	var (
		mu      sync.Mutex
		started = map[*sim.System]time.Time{}
		runSpan time.Duration
		refs    float64
		jobTime time.Duration
	)
	eng.Runner.Observe = func(s *sim.System) {
		if hooks != nil {
			hooks.observe(s)
		}
		now := time.Now()
		mu.Lock()
		started[s] = now
		mu.Unlock()
	}
	eng.Runner.ObserveDone = func(s *sim.System) {
		now := time.Now()
		mu.Lock()
		runSpan += now.Sub(started[s])
		delete(started, s)
		refs += totalRefs(s.Config())
		mu.Unlock()
		if hooks != nil {
			hooks.done(s)
		}
	}
	eng.OnProgress(func(p experiment.Progress) { jobTime += p.Elapsed })
	if prof != nil {
		if err := prof.start(); err != nil {
			return rep{}, err
		}
	}
	tables, err := eng.RunAll(exps)
	wall := time.Since(t0).Seconds()
	if prof != nil {
		if perr := prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return rep{}, err
	}

	jobs := eng.Jobs(exps...)
	requested := 0
	for _, ex := range exps {
		if ex.Jobs != nil {
			requested += len(ex.Jobs(experiment.Tiny))
		}
	}
	r := rep{
		wall:     wall,
		run:      runSpan.Seconds(),
		setup:    (jobTime - runSpan).Seconds(),
		jobTime:  jobTime.Seconds(),
		refs:     refs,
		rate:     refs / wall,
		workers:  n,
		jobs:     len(jobs),
		memoHits: requested - len(jobs),
		tables:   map[string]string{},
	}
	h := sha256.New()
	for i, ex := range exps {
		s := tables[i].String()
		fmt.Fprintf(h, "%s\n%s", ex.ID, s)
		r.tables[ex.ID] = s
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	for _, j := range jobs {
		res, err := eng.Runner.Run(j.Config) // memo hit: already simulated
		if err != nil {
			return rep{}, err
		}
		r.results = append(r.results, res)
		r.configs = append(r.configs, j.Config)
	}
	if hooks == nil {
		r.heapMB = liveHeapMB() - baseMB
		runtime.KeepAlive(eng)
		runtime.KeepAlive(tables)
	}
	return r, nil
}

// checkGoldens compares the sweep's golden-backed tables with the files
// under internal/experiment/testdata, read relative to the checkout root.
func checkGoldens(r rep, c *checks) {
	for _, id := range goldenTables {
		path := filepath.Join("internal", "experiment", "testdata", id+"_tiny.golden")
		want, err := os.ReadFile(path)
		c.check(err == nil && string(want) == r.tables[id], "sweep table %s equals %s", id, path)
	}
}

// eventCounts derives the simulated per-layer event rates from a
// repetition's results, weighting each simulation by its measured work.
func eventCounts(r rep) map[string]float64 {
	var instr, refs, pomRefs, walks float64
	sum := map[string]float64{}
	for i, res := range r.results {
		cfg := r.configs[i]
		in, rf := float64(res.Instructions), measuredRefs(cfg)
		instr += in
		refs += rf
		w := float64(res.PageWalks)
		walks += w
		sum["tlb.l1_mpki"] += res.L1TLBMPKI * in
		sum["tlb.l2_mpki"] += res.L2TLBMPKI * in
		sum["cache.l2_mpki"] += res.L2DMPKI * in
		sum["cache.l3_mpki"] += res.L3DMPKI * in
		sum["walker.walks_per_kref"] += w * 1000
		sum["walker.cycles_per_walk"] += res.WalkCyclesPerWalk * w
		sum["dram.reads_per_kref"] += float64(res.DRAMReads) * 1000
		sum["cache.l2_tlb_occupancy"] += res.TLBOccupancyL2 * rf
		sum["cpu.translate_stall_frac"] += res.TranslateStallFrac * rf
		if cfg.Org == sim.OrgPOM {
			pomRefs += rf
			sum["pom.hit_rate"] += res.POMHitRate * rf
		}
	}
	div := func(x, d float64) float64 {
		if d == 0 {
			return 0
		}
		return x / d
	}
	out := map[string]float64{}
	for k, v := range sum {
		switch k {
		case "tlb.l1_mpki", "tlb.l2_mpki", "cache.l2_mpki", "cache.l3_mpki":
			out[k] = div(v, instr)
		case "walker.cycles_per_walk":
			out[k] = div(v, walks)
		case "pom.hit_rate":
			out[k] = div(v, pomRefs)
		default:
			out[k] = div(v, refs)
		}
	}
	if _, ok := out["pom.hit_rate"]; !ok {
		out["pom.hit_rate"] = 0
	}
	return out
}
