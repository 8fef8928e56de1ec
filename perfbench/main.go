// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator for a fixed time, checks the outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it reports the end-to-end metrics: host throughput,
// set-up time, repetition wall time and live heap, each the median over
// the repetitions that fit in --seconds. With --trace 1 it reports the
// per-layer split instead, from untraced repetitions, a traced run whose
// cores are rebuilt over timing wrappers of the simulator's seams, a CPU
// profile of that run, and replays of the recorded reference stream
// through fresh TLBs and L1D caches.
//
//	perfbench --workload gups_pom_cd --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seconds 10 --trace 1
//	perfbench --compare base.json head.json
//
// Run it from the repository root: the sweep reads the experiment
// package's golden tables from there. perfbench/run.sh builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/csalt-sim/csalt/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement time per workload")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	recordDir := fs.String("record-dir", "", "directory to write one JSON record per run into")
	compare := fs.Bool("compare", false, "compare the two record files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	var chosen []benchWorkload
	if *name == "all" {
		chosen = workloads
	} else if w, ok := workloadByName(*name); ok {
		chosen = []benchWorkload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s, all)\n", *name, workloadNames())
		return 2
	}
	if _, err := os.Stat(filepath.Join("internal", "experiment", "testdata")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root (internal/experiment/testdata not found)")
		return 2
	}
	commit, err := commitOf()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	final := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, w := range chosen {
		fmt.Fprintf(stderr, "perfbench: %s seed %d trace %d\n", w.name, *seed, *traced)
		values, info, digest, c := measure(w, *seed, budget, *traced == 1)
		specs := endToEnd
		if *traced == 1 {
			specs = perLayer
		}
		ms, missing := metrics(specs, values)
		for _, m := range missing {
			c.check(false, "metric %s was not measured", m)
		}
		res := Result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: ms}
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		printHuman(stdout, w.name, specs, ms, info, digest, c)
		rec := Record{Workload: w.name, Seed: *seed, Trace: *traced == 1, Commit: commit,
			Fingerprint: hostFingerprint(), Digest: digest, Checks: c.failures, Result: res, Info: info}
		if err := writeRecord(*recordDir, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		if len(chosen) == 1 {
			final = res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range ms {
			final.Metrics[w.name+"."+k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// commitOf names the measured code: the VCS revision when the binary
// carries one, else a digest of the sources under the working directory.
func commitOf() (string, error) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value, nil
			}
		}
	}
	d, err := sourceDigest(".")
	if err != nil {
		return "", err
	}
	return "src-" + d, nil
}

// checks counts output checks and simulations; every one is attempted and
// each failure is remembered by description.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) check(ok bool, format string, args ...interface{}) {
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// repeat runs fn until budget has elapsed and at least min repetitions
// succeeded, collecting garbage between repetitions so each starts from
// the same heap. A failed repetition ends the loop.
func repeat(budget time.Duration, min int, c *checks, fn func() (rep, error)) []rep {
	start := time.Now()
	var reps []rep
	for len(reps) < min || time.Since(start) < budget {
		runtime.GC()
		r, err := fn()
		c.check(err == nil, "simulation failed: %v", err)
		if err != nil {
			break
		}
		reps = append(reps, r)
	}
	return reps
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// measure runs one workload and returns its metric values, informational
// numbers, the results digest and the checks made.
func measure(w benchWorkload, seed uint64, budget time.Duration, traced bool) (values, info map[string]float64, digest string, c *checks) {
	c = &checks{}
	values, info = map[string]float64{}, map[string]float64{}
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	var cfg sim.Config
	var reps []rep
	if w.config == nil {
		reps = repeat(untracedBudget, 2, c, func() (rep, error) { return runSweep(nil, nil) })
	} else {
		cfg = w.config(seed)
		reps = repeat(untracedBudget, 2, c, func() (rep, error) {
			return runSingle(cfg, nil, nil)
		})
	}
	if len(reps) == 0 {
		return values, info, "", c
	}
	digest = reps[0].digest
	for i, r := range reps {
		c.check(r.digest == digest, "repetition %d digest %.12s differs from the first, %.12s", i, r.digest, digest)
		if w.config == nil {
			checkGoldens(r, c)
		}
	}
	info["repetitions"] = float64(len(reps))
	throughputs := make([]float64, len(reps))
	for i, r := range reps {
		throughputs[i] = r.rate
	}
	info["refs_per_s_rep_spread"] = spread(throughputs)
	values["refs_per_s"] = median(throughputs)
	values["setup_s"] = medianOf(reps, func(r rep) float64 { return r.setup })
	values["wall_s"] = medianOf(reps, func(r rep) float64 { return r.wall })
	values["live_heap_mb"] = medianOf(reps, func(r rep) float64 { return r.heapMB })
	if traced {
		layerMetrics(w, cfg, reps, budget-untracedBudget, values, info, c)
	}
	info["failed_frac"] = float64(c.failed) / float64(c.attempted)
	return values, info, digest, c
}

// layerMetrics adds the per-layer metrics: a traced run for the seam
// split and profile, a recorded run for the layer replays, and the
// simulated event rates of the untraced repetitions.
func layerMetrics(w benchWorkload, cfg sim.Config, reps []rep, budget time.Duration, values, info map[string]float64, c *checks) {
	agg := &seams{}
	prof := newProfiledSpan()
	defer func() { info["profiled_cpu_s"] = prof.cpuNS / 1e9 }()
	var traced []rep
	var tlbRun, l1dRun replayed
	var pages float64
	if w.config == nil {
		var mu sync.Mutex
		probes := map[*sim.System]*probe{}
		var hookErr error
		hooks := &sweepHooks{
			observe: func(s *sim.System) {
				p := &probe{}
				err := p.instrument(s)
				mu.Lock()
				defer mu.Unlock()
				probes[s] = p
				if err != nil && hookErr == nil {
					hookErr = err
				}
			},
			done: func(s *sim.System) {
				mu.Lock()
				defer mu.Unlock()
				agg.merge(&probes[s].seams)
				delete(probes, s)
			},
		}
		traced = repeat(budget, 1, c, func() (rep, error) {
			r, err := runSweep(hooks, prof)
			if err == nil {
				err = hookErr
			}
			return r, err
		})
		for i, job := range reps[0].configs {
			p, err := footprintPages(job)
			c.check(err == nil, "counting footprint: %v", err)
			pages += p
			if i%16 != 0 || !replayable(job) {
				continue
			}
			t, l, d, err := recordAndReplay(job, c)
			c.check(err == nil, "recorded run of %s failed: %v", job.Mix.ID, err)
			c.check(d == digestOf(reps[0].results[i]), "recorded run of sweep job %d changed its results", i)
			tlbRun.ops += t.ops
			tlbRun.ns += t.ns
			l1dRun.ops += l.ops
			l1dRun.ns += l.ns
		}
	} else {
		traced = repeat(budget, 1, c, func() (rep, error) {
			probes := make([]*probe, workers())
			for i := range probes {
				probes[i] = &probe{}
			}
			r, err := runSingle(cfg, probes, prof)
			if err == nil {
				for _, p := range probes {
					agg.merge(&p.seams)
				}
			}
			return r, err
		})
		var d string
		var err error
		tlbRun, l1dRun, d, err = recordAndReplay(cfg, c)
		c.check(err == nil, "recorded run failed: %v", err)
		c.check(d == reps[0].digest, "recorded run digest %.12s differs from untraced %.12s", d, reps[0].digest)
		pages, err = footprintPages(cfg)
		c.check(err == nil, "counting footprint: %v", err)
	}
	for i, r := range traced {
		c.check(r.digest == reps[0].digest, "traced repetition %d digest %.12s differs from untraced %.12s", i, r.digest, reps[0].digest)
	}
	if len(traced) == 0 {
		return
	}

	n := float64(len(traced))
	perCall := func(s seam) float64 {
		if s.calls == 0 {
			return 0
		}
		return s.total() / float64(s.calls)
	}
	values["workload.next_ns"] = perCall(agg.next)
	values["workload.calls"] = float64(agg.next.calls) / n
	values["sim.translate_ns"] = perCall(agg.translate)
	values["sim.translate_calls"] = float64(agg.translate.calls) / n
	values["sim.data_ns"] = perCall(agg.data)
	values["sim.data_calls"] = float64(agg.data.calls) / n
	values["sim.translate_blocking_frac"] = 0
	if agg.translate.calls > 0 {
		values["sim.translate_blocking_frac"] = float64(agg.blocking) / float64(agg.translate.calls)
	}
	// The loop's share is what the traced run spent outside the seams, so
	// the four parts add up to the traced run exactly.
	seamNS := agg.next.total() + agg.translate.total() + agg.data.total()
	tracedRunNS := 0.0
	for _, r := range traced {
		tracedRunNS += r.run * 1e9
	}
	values["sim.loop_ns"] = (tracedRunNS - seamNS) / (n * reps[0].refs)

	values["setup.pages"] = pages
	values["setup.ns_per_page"] = 0
	if pages > 0 {
		values["setup.ns_per_page"] = values["setup_s"] * 1e9 / pages
	}

	split := prof.split
	for _, l := range profLayers {
		values["prof."+l+"_frac"] = split.share(split.layers[l])
	}
	values["prof.samples"] = float64(split.total)
	for _, s := range []struct {
		name string
		seam seam
	}{{"translate", agg.translate}, {"data", agg.data}, {"next", agg.next}} {
		profShare := split.share(split.seams[s.name])
		spanShare := 0.0
		if prof.cpuNS > 0 {
			spanShare = s.seam.total() / prof.cpuNS
		}
		values["recon."+s.name+"_prof_share"] = profShare
		values["recon."+s.name+"_span_share"] = spanShare
		c.check(math.Abs(profShare-spanShare) <= reconTolerance,
			"%s: profile share %.3f and span share %.3f differ by more than %.2f", s.name, profShare, spanShare, reconTolerance)
	}

	values["experiment.jobs"] = float64(reps[0].jobs)
	values["experiment.memo_hits"] = float64(reps[0].memoHits)
	values["experiment.parallel_eff"] = medianOf(reps, func(r rep) float64 { return r.jobTime / (r.wall * float64(r.workers)) })
	for k, v := range eventCounts(reps[0]) {
		values[k] = v
	}
	values["trace.overhead_frac"] = medianOf(traced, func(r rep) float64 { return r.wall })/medianOf(reps, func(r rep) float64 { return r.wall }) - 1

	perOp := func(r replayed) float64 {
		if r.ops == 0 {
			return 0
		}
		return r.ns / float64(r.ops)
	}
	values["tlb.lookup_ns"] = perOp(tlbRun)
	values["tlb.replay_lookups"] = float64(tlbRun.ops)
	values["cache.l1d_lookup_ns"] = perOp(l1dRun)
	values["cache.replay_accesses"] = float64(l1dRun.ops)
}

// printHuman writes one readable line per metric, then the informational
// numbers, the digest and any failed checks.
func printHuman(w io.Writer, workload string, specs []spec, ms map[string]Metric, info map[string]float64, digest string, c *checks) {
	for _, s := range specs {
		if m, ok := ms[s.name]; ok {
			fmt.Fprintf(w, "%-14s %-30s %16.6g %-9s %s\n", workload, s.name, m.Value, m.Unit, s.moves)
		}
	}
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-14s %-30s %16.6g (info)\n", workload, k, info[k])
	}
	fmt.Fprintf(w, "%-14s digest %s (info: changes when the model changes)\n", workload, digest)
	fmt.Fprintf(w, "%-14s checks %d attempted, %d failed\n", workload, c.attempted, c.failed)
	for _, f := range c.failures {
		fmt.Fprintf(w, "%-14s FAILED %s\n", workload, f)
	}
}

// writeRecord stores rec as <dir>/<workload>-seed<N>-trace<T>.json; an
// empty dir writes nothing.
func writeRecord(dir string, rec Record) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	return nil
}

// compareFiles prints the metric-by-metric change between two records,
// refusing records measured on different hosts or toolchains.
func compareFiles(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: --compare needs two record files")
		return 2
	}
	var recs [2]Record
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: reading %s: %v\n", p, err)
			return 2
		}
	}
	lines, err := compareRecords(recs[0], recs[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if errors.Is(err, errFingerprint) {
			return 3
		}
		return 2
	}
	fmt.Fprintf(stdout, "%s: %s -> %s\n", recs[1].Workload, recs[0].Commit, recs[1].Commit)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return 0
}
