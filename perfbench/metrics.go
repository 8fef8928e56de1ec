package main

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// spec describes one metric: its unit, which direction is better and, for
// a per-layer metric, which end-to-end metric it should move and on which
// workload. The moves column is the layer → metric → workload map an
// optimisation claim starts from.
type spec struct {
	name, unit, better, moves string
}

// endToEnd are measured with tracing off (--trace 0).
var endToEnd = []spec{
	{"refs_per_s", "1/s", "higher", "simulated memory references retired per host second of the System.Run phase, both copies together (sweep: all jobs' references over sweep wall)"},
	{"setup_s", "s", "lower", "host seconds in sim.New, mean over the copies (sweep: per-job set-up summed over jobs)"},
	{"wall_s", "s", "lower", "host seconds for one repetition: set-up, run, checks and table rendering"},
	{"live_heap_mb", "MB", "lower", "live Go heap a repetition adds, after runtime.GC with its finished systems referenced, per simulation (sweep: engine and memo cache)"},
}

// perLayer come from a separate traced run (--trace 1).
var perLayer = []spec{
	{"workload.next_ns", "ns", "lower", "refs_per_s on stream_pom_d; little effect on ccomp_conv"},
	{"workload.calls", "count", "lower", "exact trace.Source.Next calls per repetition"},
	{"sim.translate_ns", "ns", "lower", "refs_per_s on ccomp_conv and gups_pom_cd; none on stream_pom_d"},
	{"sim.translate_calls", "count", "lower", "exact Translate calls per repetition"},
	{"sim.translate_blocking_frac", "frac", "lower", "share of Translate calls that missed the L2 TLB (blocking)"},
	{"sim.data_ns", "ns", "lower", "refs_per_s on gups_pom_cd and stream_pom_d"},
	{"sim.data_calls", "count", "lower", "exact AccessData calls per repetition"},
	{"sim.loop_ns", "ns", "lower", "refs_per_s on stream_pom_d (Core.Step bookkeeping, scheduler, warmup scan)"},
	{"setup.ns_per_page", "ns", "lower", "setup_s on ccomp_conv and sweep_tiny"},
	{"setup.pages", "count", "lower", "footprint pages prewarmed per repetition, via trace.Footprinter"},
	{"prof.tlb_frac", "frac", "lower", "refs_per_s on gups_pom_cd and ccomp_conv"},
	{"prof.cache_frac", "frac", "lower", "refs_per_s on gups_pom_cd and stream_pom_d"},
	{"prof.walker_frac", "frac", "lower", "refs_per_s on ccomp_conv"},
	{"prof.pagetable_frac", "frac", "lower", "refs_per_s on ccomp_conv; setup_s on ccomp_conv and sweep_tiny"},
	{"prof.dram_frac", "frac", "lower", "refs_per_s on gups_pom_cd"},
	{"prof.core_frac", "frac", "lower", "refs_per_s on gups_pom_cd and stream_pom_d (partition controller)"},
	{"prof.cpu_frac", "frac", "lower", "refs_per_s on stream_pom_d"},
	{"prof.workload_frac", "frac", "lower", "refs_per_s on stream_pom_d; setup_s via footprint prewarm"},
	{"prof.sim_frac", "frac", "lower", "refs_per_s on every single-simulation workload"},
	{"prof.runtime_frac", "frac", "lower", "samples with no simulator frame: GC, scheduler"},
	{"prof.other_frac", "frac", "lower", "samples whose innermost repo frame is elsewhere: the engine, renderers, this benchmark's wrappers"},
	{"prof.samples", "count", "higher", "CPU-profile samples behind the prof.* shares"},
	{"recon.translate_prof_share", "frac", "lower", "profile share under memSystem.Translate"},
	{"recon.translate_span_share", "frac", "lower", "Translate span time over profiled CPU time"},
	{"recon.data_prof_share", "frac", "lower", "profile share under memSystem.AccessData"},
	{"recon.data_span_share", "frac", "lower", "AccessData span time over profiled CPU time"},
	{"recon.next_prof_share", "frac", "lower", "profile share under Source.Next"},
	{"recon.next_span_share", "frac", "lower", "Source.Next span time over profiled CPU time"},
	{"experiment.jobs", "count", "lower", "simulations per repetition"},
	{"experiment.memo_hits", "count", "higher", "requested configurations served by the memo cache instead of simulated"},
	{"experiment.parallel_eff", "frac", "higher", "wall_s on sweep_tiny only: summed job time over (wall x workers)"},
	{"tlb.l1_mpki", "1/kinstr", "lower", "simulated L1 TLB misses per kilo-instruction"},
	{"tlb.l2_mpki", "1/kinstr", "lower", "simulated L2 TLB misses per kilo-instruction"},
	{"pom.hit_rate", "frac", "higher", "simulated POM-TLB hit rate (0 without a POM)"},
	{"walker.walks_per_kref", "1/kref", "lower", "simulated page walks per thousand measured references"},
	{"walker.cycles_per_walk", "cycles", "lower", "simulated radix-walk latency"},
	{"cache.l2_mpki", "1/kinstr", "lower", "simulated L2 data-cache misses per kilo-instruction"},
	{"cache.l3_mpki", "1/kinstr", "lower", "simulated L3 misses per kilo-instruction"},
	{"cache.l2_tlb_occupancy", "frac", "lower", "simulated share of L2 lines holding translations"},
	{"dram.reads_per_kref", "1/kref", "lower", "simulated DRAM accesses per thousand measured references"},
	{"cpu.translate_stall_frac", "frac", "lower", "Results.TranslateStallFrac: translate-stall cycles, warmup included, over measured cycles, so it can exceed 1"},
	{"trace.overhead_frac", "frac", "lower", "traced wall over untraced wall, minus 1"},
	{"tlb.lookup_ns", "ns", "lower", "refs_per_s on gups_pom_cd and ccomp_conv: replayed L1/L1-2M/L2 TLB lookups"},
	{"tlb.replay_lookups", "count", "lower", "TLB lookups in the replay"},
	{"cache.l1d_lookup_ns", "ns", "lower", "refs_per_s on stream_pom_d and gups_pom_cd: replayed L1D accesses, fill included"},
	{"cache.replay_accesses", "count", "lower", "L1D accesses in the replay"},
}

// reconTolerance is the largest absolute gap allowed between a seam's
// profile share and its span share before the traced run counts a failed
// check.
const reconTolerance = 0.12

// metrics builds the result map for one spec list from values keyed by
// name; a spec without a value is reported as missing by the caller.
func metrics(specs []spec, values map[string]float64) (map[string]Metric, []string) {
	out := make(map[string]Metric, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			missing = append(missing, s.name)
			continue
		}
		out[s.name] = Metric{Value: v, Unit: s.unit}
	}
	return out, missing
}
