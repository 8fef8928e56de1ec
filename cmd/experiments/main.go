// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list
//	experiments -run fig7 -scale small
//	experiments -run all -scale paper -parallel 8
//	experiments -run all -results-dir out/sweep        # durable results
//	experiments -run all -results-dir out/sweep -resume # continue a killed sweep
//
// Scales trade fidelity for time: "tiny" (seconds, 2 cores), "small"
// (default; full 8-core machine, scaled footprints), "paper" (full
// calibrated footprints; minutes per figure). See EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// Simulations fan out across -parallel workers (default: all CPUs). The
// independent units are (workload mix × configuration) simulations; the
// rendered tables are merged in deterministic order and are byte-identical
// at every parallelism level, including -parallel 1 — and, with
// -results-dir/-resume, identical whether the sweep ran uninterrupted or
// was killed and resumed (see ROBUSTNESS.md).
//
// Fault tolerance: SIGINT/SIGTERM cancel the sweep cleanly (completed
// results stay durable under -results-dir and -metrics-out still flushes);
// -keep-going runs every job past failures and renders failed cells as
// ERR; -job-timeout bounds each job's wall-clock time; -stall-cycles arms
// the in-simulator forward-progress watchdog; -check arms mid-run model
// invariant verification on every simulation. Jobs in flight at the
// signal are cancelled and rerun from zero by the next -resume; the
// durable unit is the finished job. SIGQUIT dumps live diagnostics —
// goroutine stacks and engine stats — to stderr without stopping the
// sweep.
//
// -fsck (with -results-dir) checks and repairs a results store in place:
// it truncates a torn tail and compacts duplicate records.
//
// Exit codes: 0 success, 1 simulation failure (failing job labels on
// stderr), 2 usage/config error, 130 interrupted by signal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/sim"
)

// Exit codes: usage/config errors are distinguishable from simulation
// failures so sweep scripts can tell a typo from a broken run.
const (
	exitSimFailure  = 1
	exitUsage       = 2
	exitInterrupted = 130
)

// usageFail reports a usage/configuration error and exits 2.
func usageFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(exitUsage)
}

func main() {
	var (
		list        = flag.Bool("list", false, "list available experiments")
		run         = flag.String("run", "", "experiment id to run, or 'all'")
		scale       = flag.String("scale", "small", "tiny | small | paper")
		engine      = flag.String("engine", "", "simulation engine: fast (default) | reference; tables are byte-identical either way")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "simulations to run concurrently (<=1 for sequential)")
		quiet       = flag.Bool("quiet", false, "suppress the per-job progress/ETA line on stderr")
		paperValues = flag.Bool("paper-values", false, "print the paper's reported values (optionally filtered by -run) and exit")
		metricsOut  = flag.String("metrics-out", "", "write the engine's throughput counters (JSON) to this file at exit")
		keepGoing   = flag.Bool("keep-going", false, "run every job past failures; failed cells render as ERR and the exit code is still 1")
		resultsDir  = flag.String("results-dir", "", "persist each completed result to an append-only store in this directory")
		resume      = flag.Bool("resume", false, "replay completed results from -results-dir instead of re-simulating them")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none); an overrunning job fails, the sweep continues per -keep-going")
		stallCycles = flag.Uint64("stall-cycles", 10_000_000, "in-simulator watchdog: fail a job if no instruction retires for this many simulated cycles (0 = off)")
		check       = flag.Bool("check", false, "arm mid-run model invariant checking on every simulation (the cheap end-of-run pass always runs)")
		attrOut     = flag.String("attr-out", "", "attach the cycle/miss-attribution plane to every simulation and write per-configuration reports (JSON) into this directory")
		heatmapCSV  = flag.String("heatmap-csv", "", "write each simulation's per-set occupancy/contention heatmaps (CSV) into this directory")
		fsck        = flag.Bool("fsck", false, "check the -results-dir store: report and repair a torn tail (crash mid-append) and compact duplicate records")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	prof, err := obs.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		usageFail("profiling: %v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
		}
	}()

	if *paperValues {
		artifact := *run
		if artifact == "all" {
			artifact = ""
		}
		experiment.PaperTable(artifact).Render(os.Stdout)
		return
	}

	if *fsck {
		if *resultsDir == "" {
			usageFail("-fsck needs -results-dir")
		}
		runFsck(*resultsDir)
		return
	}

	if *list || *run == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiment.All() {
			fmt.Printf("  %-22s %s\n", e.ID, e.Title)
			fmt.Printf("  %-22s   paper: %s\n", "", e.PaperClaim)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	sc, err := experiment.ScaleByName(*scale)
	if err != nil {
		usageFail("%v", err)
	}
	switch *engine {
	case "", sim.EngineFast, sim.EngineReference:
		sc.Engine = *engine
	default:
		usageFail("unknown engine %q (fast|reference)", *engine)
	}

	var todo []experiment.Experiment
	if *run == "all" {
		todo = experiment.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiment.ByID(strings.TrimSpace(id))
			if !ok {
				usageFail("unknown experiment %q (use -list)", id)
			}
			todo = append(todo, e)
		}
	}
	if *resume && *resultsDir == "" {
		usageFail("-resume needs -results-dir")
	}

	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	eng := experiment.NewEngine(sc, *parallel)
	eng.KeepGoing = *keepGoing
	eng.JobTimeout = *jobTimeout
	eng.Runner.StallLimit = *stallCycles
	eng.Runner.CheckInvariants = *check

	var store *checkpoint.Store
	if *resultsDir != "" {
		if *resume {
			// Diagnose a damaged store up front: a benign torn tail (crash
			// mid-append) is repaired by replay, anything else refuses to
			// resume rather than silently dropping results.
			fsck, err := checkpoint.Fsck(*resultsDir)
			if err != nil {
				usageFail("%v", err)
			}
			if fsck.TornTail > 0 {
				fmt.Fprintf(os.Stderr, "fsck: torn %d-byte tail in %s (crash mid-append); truncating on replay\n",
					fsck.TornTail, fsck.Path)
			}
		}
		store, err = checkpoint.Open(*resultsDir, *resume)
		if err != nil {
			usageFail("%v", err)
		}
		defer store.Close()
		eng.Runner.Store = store
		if *resume && store.Replayed() > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d completed results on record\n", store.Replayed())
		}
	}

	rep := newReporter(os.Stderr, *quiet)
	eng.Progress = rep.progress

	// Opt-in attribution: an introspection plane on every simulated system,
	// its report and heatmaps written as each run finishes.
	if *attrOut != "" || *heatmapCSV != "" {
		if err := attachAttribution(eng.Runner, *attrOut, *heatmapCSV); err != nil {
			usageFail("%v", err)
		}
	}

	// Ctrl-C / SIGTERM cancel the sweep cooperatively: in-flight
	// simulations stop within a few hundred steps, completed results stay
	// durable in the store, and the metrics/summary still flush below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	watchSIGQUIT(eng)

	// One shared job pool for every requested experiment: baselines common
	// to several figures (e.g. the POM-TLB runs of Figs. 7/8/10/11) are
	// simulated once, and the pool keeps every worker busy across
	// experiment boundaries.
	jobs := eng.Jobs(todo...)
	start := time.Now()
	execErr := eng.ExecuteContext(ctx, jobs)
	rep.clear()
	simElapsed := time.Since(start)

	flushMetrics := func() {
		if *metricsOut == "" {
			return
		}
		if err := writeEngineMetrics(*metricsOut, eng.Stats(), sc.Name, *parallel, simElapsed); err != nil {
			fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
		}
	}

	if ctx.Err() != nil {
		// Interrupted: flush what exists — metrics, the summary, and any
		// table whose jobs all completed before the signal landed.
		fmt.Fprintf(os.Stderr, "interrupted: %v\n", execErr)
		renderPartialTables(eng, todo)
		rep.summary(os.Stdout, sc.Name, *parallel, simElapsed, eng.Runner.NumRuns(), eng.Stats())
		flushMetrics()
		if store != nil {
			fmt.Fprintf(os.Stderr, "completed results saved; rerun with -results-dir %s -resume to continue\n", *resultsDir)
		}
		os.Exit(exitInterrupted)
	}
	if execErr != nil {
		fmt.Fprintln(os.Stderr, "simulation failed:")
		for _, l := range errorLabels(execErr) {
			fmt.Fprintf(os.Stderr, "  %s\n", l)
		}
		if !*keepGoing {
			flushMetrics()
			os.Exit(exitSimFailure)
		}
		// keep-going: fall through and render tables with ERR cells.
	}

	for _, e := range todo {
		table, err := e.Run(eng.Runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			flushMetrics()
			os.Exit(exitSimFailure)
		}
		fmt.Printf("# %s — %s\n", e.ID, e.Title)
		fmt.Printf("# paper: %s\n", e.PaperClaim)
		table.Render(os.Stdout)
		fmt.Println()
	}
	rep.summary(os.Stdout, sc.Name, *parallel, simElapsed, eng.Runner.NumRuns(), eng.Stats())
	flushMetrics()
	if execErr != nil {
		os.Exit(exitSimFailure)
	}
}

// watchSIGQUIT dumps live diagnostics — engine throughput and goroutine
// stacks — to stderr on every SIGQUIT, without exiting, so a long sweep
// can be inspected in place.
func watchSIGQUIT(eng *experiment.Engine) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			obs.DumpDiagnostics(os.Stderr, "experiments", statusLines(eng))
		}
	}()
}

// statusLines summarises the engine for the SIGQUIT diagnostics dump.
func statusLines(eng *experiment.Engine) []string {
	es := eng.Stats()
	return []string{
		fmt.Sprintf("jobs: run=%d replayed=%d failed=%d skipped=%d",
			es.JobsRun, es.JobsReplayed, es.JobsFailed, es.JobsSkipped),
		fmt.Sprintf("sim: %d cycles, %d instructions (%.3g cycles/s)",
			es.SimCycles, es.SimInstructions, es.CyclesPerSecond()),
	}
}

// runFsck is -fsck: diagnose a results store, repair what is safely
// repairable (truncate a torn tail from a crash mid-append, drop
// superseded duplicate records), and report. It exits 1 when the store
// cannot be read or repaired.
func runFsck(dir string) {
	rep, err := checkpoint.Fsck(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		os.Exit(exitSimFailure)
	}
	fmt.Printf("fsck %s: %d records, %d distinct keys\n", rep.Path, rep.Records, rep.Records-rep.Duplicates)
	if rep.TornTail > 0 {
		fmt.Printf("  torn tail: %d bytes (crash mid-append) — truncating\n", rep.TornTail)
	}
	if rep.Duplicates > 0 {
		fmt.Printf("  duplicates: %d superseded records — compacting\n", rep.Duplicates)
	}
	if rep.TornTail == 0 && rep.Duplicates == 0 {
		fmt.Println("  clean")
		return
	}
	// Opening in resume mode replays the log and truncates the torn tail;
	// Compact then rewrites the store with one record per key.
	store, err := checkpoint.Open(dir, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: repair: %v\n", err)
		os.Exit(exitSimFailure)
	}
	removed, err := store.Compact()
	store.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: compact: %v\n", err)
		os.Exit(exitSimFailure)
	}
	fmt.Printf("  repaired: %d duplicate records removed, %d live records kept\n", removed, store.Len())
}

// attachAttribution wires an introspection plane onto every simulated
// system and, when each run finishes, writes its attribution report and
// heatmaps into the given directories — one file per configuration,
// named <mix>_<org>_<scheme>. Attribution is passive, so observed results
// still hit the memo cache and match unobserved runs byte for byte.
func attachAttribution(r *experiment.Runner, attrDir, heatDir string) error {
	for _, dir := range []string{attrDir, heatDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	r.Observe = func(sys *sim.System) {
		sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: sys.Config().Cores}))
	}
	r.ObserveDone = func(sys *sim.System) {
		p := sys.Introspection()
		if p == nil {
			return
		}
		cfg := sys.Config()
		name := fmt.Sprintf("%s_%s_%s", cfg.Mix.ID, cfg.Org, cfg.Scheme)
		if attrDir != "" {
			writeAttrFile(filepath.Join(attrDir, name+".json"), p.WriteReport)
		}
		if heatDir != "" {
			writeAttrFile(filepath.Join(heatDir, name+".csv"), p.WriteHeatmapCSV)
		}
	}
	return nil
}

// writeAttrFile writes one attribution artifact, reporting failures to
// stderr without failing the sweep (the simulation result is already
// sound; only the diagnostic sidecar was lost).
func writeAttrFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "attribution: %v\n", err)
		return
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "attribution: writing %s: %v\n", path, err)
	}
	f.Close()
}

// renderPartialTables prints every requested table whose full job list
// already has results (memo or store), and names the ones still missing
// work — the "partial tables" flush on the interrupt path. Tables with
// incomplete job lists are skipped rather than triggering inline
// re-simulation of the missing configurations.
func renderPartialTables(eng *experiment.Engine, todo []experiment.Experiment) {
	for _, e := range todo {
		complete := true
		for _, j := range eng.Jobs(e) {
			if !eng.Runner.Cached(j.Config) {
				complete = false
				break
			}
		}
		if !complete {
			fmt.Fprintf(os.Stderr, "# %s: incomplete, not rendered\n", e.ID)
			continue
		}
		table, err := e.Run(eng.Runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "# %s: render failed: %v\n", e.ID, err)
			continue
		}
		fmt.Printf("# %s — %s (completed before interrupt)\n", e.ID, e.Title)
		table.Render(os.Stdout)
		fmt.Println()
	}
}

// writeEngineMetrics exports the engine's throughput counters as JSON.
func writeEngineMetrics(path string, es experiment.EngineStats, scale string, parallel int, elapsed time.Duration) error {
	out := struct {
		Scale           string  `json:"scale"`
		Parallel        int     `json:"parallel"`
		ElapsedSeconds  float64 `json:"elapsed_seconds"`
		JobsRun         int     `json:"jobs_run"`
		JobsReplayed    int     `json:"jobs_replayed"`
		JobsFailed      int     `json:"jobs_failed"`
		JobsSkipped     int     `json:"jobs_skipped"`
		JobWallSeconds  float64 `json:"job_wall_seconds"`
		SimCycles       uint64  `json:"sim_cycles"`
		SimInstructions uint64  `json:"sim_instructions"`
		CyclesPerSec    float64 `json:"cycles_per_second"`
	}{
		Scale: scale, Parallel: parallel, ElapsedSeconds: elapsed.Seconds(),
		JobsRun: es.JobsRun, JobsReplayed: es.JobsReplayed,
		JobsFailed: es.JobsFailed, JobsSkipped: es.JobsSkipped,
		JobWallSeconds: es.JobWall.Seconds(),
		SimCycles:      es.SimCycles, SimInstructions: es.SimInstructions,
		CyclesPerSec: es.CyclesPerSecond(),
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// errorLabels extracts the per-job "label: cause" first lines from a
// joined execute error, for compact stderr reporting.
func errorLabels(err error) []string {
	var lines []string
	for _, e := range flattenJoined(err) {
		msg := e.Error()
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i]
		}
		lines = append(lines, msg)
	}
	return lines
}

// flattenJoined unwraps errors.Join trees into a flat list.
func flattenJoined(err error) []error {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		var out []error
		for _, e := range u.Unwrap() {
			out = append(out, flattenJoined(e)...)
		}
		return out
	}
	return []error{err}
}
