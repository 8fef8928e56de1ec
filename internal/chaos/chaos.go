// Package chaos is the seeded fault-injection sweep harness behind
// `cmd/experiments -chaos-sweep`: it runs a tiny fig3 sweep under many
// generated fault schedules and asserts the robustness contract — every
// run either completes with tables byte-identical to a chaos-free golden
// run, or fails with a classified error and then resumes (chaos-free,
// from its own checkpoint store) to the same golden bytes. Anything else
// — an unclassifiable error, a table mismatch, a resume that cannot
// reproduce the golden output — is a harness failure, i.e. a robustness
// bug in the simulator stack, not a scheduled fault.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/faultinject"
	"github.com/csalt-sim/csalt/internal/invariant"
	"github.com/csalt-sim/csalt/internal/sim"
)

// MicroScale is the sweep's fidelity level: single-core, seconds-fast
// jobs, small enough that hundreds of seeded schedules run in CI.
var MicroScale = experiment.Scale{
	Name: "micro", Cores: 1, WorkloadScale: 0.05,
	MaxRefs: 6_000, Warmup: 1_000,
	SwitchCycles: 20_000, EpochLen: 1_500, OccEvery: 2_000,
}

// DefaultStallLimit arms every run's in-simulator forward-progress
// watchdog, so the sim.stall chaos point has a detector to trip.
const DefaultStallLimit = 200_000

// DefaultJobTimeout bounds each job's wall clock; worker.stall injections
// (which wedge a worker for a minute) must hit this deadline.
const DefaultJobTimeout = time.Second

// ExperimentID names the experiment the sweep runs; fig3 is the smallest
// multi-job figure (five single-config jobs).
const ExperimentID = "fig3"

// Options configures a sweep. The zero value is usable: one run at seed
// 0, micro scale, one worker (strict determinism).
type Options struct {
	Seed uint64 // base seed; run i uses Seed+i
	Runs int    // number of seeded schedules; <= 0 means 1

	// Schedule, when non-empty, replaces seed-based generation for every
	// run — the -chaos flag's explicit-schedule mode.
	Schedule faultinject.Schedule

	Scale      experiment.Scale // zero value selects MicroScale
	Workers    int              // engine workers per run; <= 0 means 1
	JobTimeout time.Duration    // per-job deadline; 0 selects DefaultJobTimeout
	Retries    int              // transient-error retries; < 0 means 0, 0 means 2
	Dir        string           // parent for per-run store dirs; "" uses the OS temp dir
	Keep       bool             // keep per-run dirs for post-mortem
	Log        io.Writer        // per-run progress lines; nil is silent
}

func (o *Options) fill() {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Scale.Name == "" {
		o.Scale = MicroScale
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = DefaultJobTimeout
	}
	switch {
	case o.Retries < 0:
		o.Retries = 0
	case o.Retries == 0:
		o.Retries = 2
	}
}

// RunReport is one schedule's outcome.
type RunReport struct {
	Seed     uint64
	Schedule string
	Outcome  string // "clean" (no failure) or "resumed" (classified failure, then golden resume)
	Class    string // error class of the failure, "" for clean runs
	Err      string // the failure's rendered error, "" for clean runs
	Firings  int
	Log      string   // sorted firing log (faultinject.Plane.LogString)
	Points   []string // distinct points that fired, sorted
	TornTail bool     // resume found (and truncated) a torn store tail
	Dir      string   // per-run store dir (only set with Options.Keep)

	// The chaos phase's runner counter, so a point whose expected outcome
	// is clean can be checked for its effect, not only for having fired.
	Simulations int // simulations started, retries included (Runner.NumRuns)
}

// SweepReport aggregates a sweep.
type SweepReport struct {
	Runs     []RunReport
	Clean    int
	Resumed  int
	Coverage map[string]int // injection point -> runs in which it fired
	Classes  map[string]int // error class -> failed runs
}

// CoverageString renders "point: N" lines sorted by point.
func (r *SweepReport) CoverageString() string {
	points := make([]string, 0, len(r.Coverage))
	for p := range r.Coverage {
		points = append(points, p)
	}
	sort.Strings(points)
	out := ""
	for _, p := range points {
		out += fmt.Sprintf("%-26s %d\n", p, r.Coverage[p])
	}
	return out
}

// Classify maps a failed run's error chain to its robustness class. The
// empty string means unclassifiable — a contract violation the sweep
// reports as a harness failure. Order matters: an invariant violation or
// panic is reported as such even when joined with secondary errors.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var (
		pe *experiment.PanicError
		se *sim.StallError
		ce *checkpoint.StoreError
	)
	switch {
	case func() bool { _, ok := invariant.IsViolation(err); return ok }():
		return "invariant"
	case errors.As(err, &pe):
		return "panic"
	case errors.As(err, &se):
		return "stall"
	case errors.As(err, &ce):
		return "store"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case experiment.IsTransient(err):
		return "transient"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	return ""
}

// Sweep runs Options.Runs seeded schedules and verifies the robustness
// contract on each. The returned error is non-nil only for contract
// violations (or a cancelled ctx) — scheduled faults that fail jobs are
// the expected, classified outcomes the report counts.
func Sweep(ctx context.Context, opts Options) (*SweepReport, error) {
	opts.fill()
	exp, ok := experiment.ByID(ExperimentID)
	if !ok {
		return nil, fmt.Errorf("chaos: experiment %q not registered", ExperimentID)
	}

	// The chaos-free golden run every outcome is measured against.
	golden, err := goldenTable(ctx, opts, exp)
	if err != nil {
		return nil, fmt.Errorf("chaos: golden run failed: %w", err)
	}

	rep := &SweepReport{
		Coverage: make(map[string]int),
		Classes:  make(map[string]int),
	}
	for i := 0; i < opts.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("chaos: sweep cancelled after %d runs: %w", i, err)
		}
		seed := opts.Seed + uint64(i)
		sched := opts.Schedule
		if len(sched) == 0 {
			sched = faultinject.Generate(seed)
		}
		run, err := runOne(ctx, opts, exp, seed, sched, golden)
		if run != nil {
			rep.Runs = append(rep.Runs, *run)
			for _, p := range run.Points {
				rep.Coverage[p]++
			}
			switch run.Outcome {
			case "clean":
				rep.Clean++
			case "resumed":
				rep.Resumed++
				rep.Classes[run.Class]++
			}
			if opts.Log != nil {
				line := fmt.Sprintf("seed %-6d %-8s", seed, run.Outcome)
				if run.Class != "" {
					line += " class=" + run.Class
				}
				fmt.Fprintf(opts.Log, "%s fired=%d schedule=%q\n", line, run.Firings, run.Schedule)
			}
		}
		if err != nil {
			return rep, fmt.Errorf("chaos: seed %d (schedule %q): %w", seed, sched, err)
		}
	}
	return rep, nil
}

// goldenTable renders the experiment once with no chaos attached.
func goldenTable(ctx context.Context, opts Options, exp experiment.Experiment) (string, error) {
	eng := experiment.NewEngine(opts.Scale, opts.Workers)
	eng.Runner.StallLimit = DefaultStallLimit
	table, err := eng.RunContext(ctx, exp)
	if err != nil {
		return "", err
	}
	return table.String(), nil
}

// runOne executes one schedule end to end: chaos run, classification,
// and — on failure — a chaos-free resume that must reproduce the golden
// table bytes.
func runOne(ctx context.Context, opts Options, exp experiment.Experiment,
	seed uint64, sched faultinject.Schedule, golden string) (*RunReport, error) {
	dir, err := os.MkdirTemp(opts.Dir, fmt.Sprintf("csalt-chaos-%d-", seed))
	if err != nil {
		return nil, err
	}
	if !opts.Keep {
		defer os.RemoveAll(dir)
	}

	plane := faultinject.New(sched)
	run := &RunReport{Seed: seed, Schedule: sched.String()}
	if opts.Keep {
		run.Dir = dir
	}

	chaosErr, err := chaosRun(ctx, opts, exp, dir, plane, golden, run)
	run.Firings = plane.Fired()
	run.Log = plane.LogString()
	run.Points = firedPoints(plane)
	if err != nil {
		return run, err
	}
	if chaosErr == nil {
		run.Outcome = "clean"
		return run, nil
	}

	run.Class = Classify(chaosErr)
	run.Err = chaosErr.Error()
	if run.Class == "" || run.Class == "cancelled" {
		return run, fmt.Errorf("unclassified failure: %w", chaosErr)
	}

	// Resume: fsck the store the interrupted sweep left behind, then
	// replay it chaos-free. The rendered table must match the golden run
	// byte for byte — partial results plus re-simulation must be
	// indistinguishable from never having crashed.
	fsck, err := checkpoint.Fsck(dir)
	if err != nil {
		return run, fmt.Errorf("fsck after %s failure: %w", run.Class, err)
	}
	run.TornTail = fsck.TornTail > 0
	store, err := checkpoint.Open(dir, true)
	if err != nil {
		return run, fmt.Errorf("resume open: %w", err)
	}
	defer store.Close()
	eng := experiment.NewEngine(opts.Scale, opts.Workers)
	eng.Runner.Store = store
	eng.Runner.StallLimit = DefaultStallLimit
	table, err := eng.RunContext(ctx, exp)
	if err != nil {
		return run, fmt.Errorf("resume after %s failure: %w", run.Class, err)
	}
	if got := table.String(); got != golden {
		return run, fmt.Errorf("resume after %s failure diverged from golden table:\n--- golden ---\n%s--- resumed ---\n%s",
			run.Class, golden, got)
	}
	run.Outcome = "resumed"
	return run, nil
}

// chaosRun executes the experiment with every seam wired to the plane and
// records the runner's counters in run. The returned chaosErr is the
// sweep's (expected) failure; err reports harness problems only. A
// successful run must already match golden.
func chaosRun(ctx context.Context, opts Options, exp experiment.Experiment,
	dir string, plane *faultinject.Plane, golden string, run *RunReport) (chaosErr, err error) {
	store, err := checkpoint.Open(dir, false)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	store.SetChaos(plane)

	eng := experiment.NewEngine(opts.Scale, opts.Workers)
	eng.Runner.Store = store
	eng.Runner.Chaos = plane
	eng.Runner.StallLimit = DefaultStallLimit
	eng.Runner.MaxRetries = opts.Retries
	eng.JobTimeout = opts.JobTimeout

	table, runErr := eng.RunContext(ctx, exp)
	run.Simulations = eng.Runner.NumRuns()
	if runErr != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("chaos run cancelled: %w", runErr)
		}
		return runErr, nil
	}
	if got := table.String(); got != golden {
		return nil, fmt.Errorf("chaos run completed but diverged from golden table:\n--- golden ---\n%s--- chaos ---\n%s",
			golden, got)
	}
	return nil, nil
}

// firedPoints lists the distinct injection points in the plane's log.
func firedPoints(p *faultinject.Plane) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range p.Log() {
		if !seen[string(f.Point)] {
			seen[string(f.Point)] = true
			out = append(out, string(f.Point))
		}
	}
	sort.Strings(out)
	return out
}
