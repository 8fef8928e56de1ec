// Package experiment reproduces every table and figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out. Each experiment
// assembles the simulator configurations behind one paper artifact, runs
// them at a chosen scale, and renders the same rows/series the paper
// reports.
//
// Scales: the paper simulates 10 B instructions per workload on 8 cores;
// the "small" scale keeps the 8-core machine but shortens runs and shrinks
// footprints proportionally (TLB-to-footprint pressure is preserved), and
// "tiny" is for the test suite. Absolute numbers shift with scale; the
// shapes — who wins, by roughly what factor, where the crossovers are —
// are the reproduction target (see EXPERIMENTS.md).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/faultinject"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/stats"
)

// Scale bundles the run-control knobs of one fidelity level.
type Scale struct {
	Name          string
	Cores         int
	WorkloadScale float64
	MaxRefs       uint64 // per core, total including warmup
	Warmup        uint64
	SwitchCycles  uint64 // the "10 ms" analogue at this scale
	EpochLen      uint64 // the "256 K accesses" analogue
	OccEvery      uint64

	// Engine selects the simulation datapath for every run at this scale
	// (sim.EngineFast, sim.EngineReference, or "" for the default fast
	// engine). Both engines produce byte-identical tables — the
	// differential-equivalence suite in internal/sim enforces it, and
	// TestGoldenTablesEngineInvariant pins it at the rendered-table level —
	// so this knob exists for cross-checking and for profiling the
	// reference datapath, not for changing results.
	Engine string
}

// The provided scales.
var (
	// Tiny: seconds-fast, for tests. Two cores only.
	Tiny = Scale{
		Name: "tiny", Cores: 2, WorkloadScale: 0.1,
		MaxRefs: 40_000, Warmup: 8_000,
		SwitchCycles: 60_000, EpochLen: 4_000, OccEvery: 10_000,
	}
	// Small: the default for benches and cmd/experiments. Full 8-core
	// machine, scaled footprints and intervals.
	Small = Scale{
		Name: "small", Cores: 8, WorkloadScale: 0.25,
		MaxRefs: 150_000, Warmup: 30_000,
		SwitchCycles: 300_000, EpochLen: 24_000, OccEvery: 40_000,
	}
	// Paper: full calibrated footprints, long runs, the paper's epoch of
	// 256 K accesses and a proportionally long switch interval. Minutes
	// per experiment.
	Paper = Scale{
		Name: "paper", Cores: 8, WorkloadScale: 1.0,
		MaxRefs: 1_500_000, Warmup: 250_000,
		SwitchCycles: 4_000_000, EpochLen: 256_000, OccEvery: 200_000,
	}
)

// ScaleByName resolves "tiny", "small" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("experiment: unknown scale %q (tiny|small|paper)", name)
}

// BaseConfig expands a scale into a simulator configuration; experiments
// mutate the copy.
func (s Scale) BaseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = s.Cores
	cfg.Scale = s.WorkloadScale
	cfg.MaxRefsPerCore = s.MaxRefs
	cfg.WarmupRefs = s.Warmup
	cfg.SwitchIntervalCycles = s.SwitchCycles
	cfg.EpochLen = s.EpochLen
	cfg.OccupancyScanEvery = s.OccEvery
	cfg.Engine = s.Engine
	return cfg
}

// Runner executes simulator configurations with memoisation: several
// figures share identical baseline runs (e.g. the POM-TLB runs of Figures
// 7, 8, 10 and 11), and the cache makes a full sweep pay for each
// configuration once.
//
// Runner is safe for concurrent use. Concurrent calls with the same
// configuration are coalesced into a single simulation (singleflight):
// the first caller simulates, the rest block until its result lands in
// the cache. Each simulation owns its whole world (system, VMs, workload
// generators), so distinct configurations run fully independently.
type Runner struct {
	Scale Scale

	// Observe, when non-nil, is invoked on every freshly built system
	// between construction and Run — the attach point for an
	// obs.Observer. Configs stay comparable (they key the memo cache), so
	// observability rides on the system, never on the Config. Set it
	// before the first Run; results of observed and unobserved runs are
	// identical (the observability layer is passive).
	Observe func(*sim.System)

	// ObserveDone, when non-nil, is invoked once a system handed to
	// Observe finishes running — on success, failure or panic — so the
	// caller can read the finished run's state (the attribution flags
	// write their reports here). It runs on the simulating goroutine,
	// after the run loop has stopped touching the system's counters.
	ObserveDone func(*sim.System)

	// Store, when non-nil, makes results durable: every completed
	// simulation is appended to the checkpoint log, and configurations
	// already in the log are replayed instead of re-simulated — the
	// -results-dir / -resume machinery. Results replayed from the store
	// are byte-identical to fresh ones (JSON float round-trips exactly),
	// so resumed sweeps render identical tables.
	Store *checkpoint.Store

	// StallLimit arms each simulation's forward-progress watchdog (see
	// sim.System.SetStallLimit); 0 leaves it disabled.
	StallLimit uint64

	// KeepGoing masks simulation failures on the public Run/RunContext
	// path: a failed configuration yields sim.PoisonedResults() (every
	// float NaN, rendered as ERR by stats.Table) instead of an error, so
	// table renderers emit their remaining healthy cells. Failures stay
	// visible through FailureOf and NumFailed; pure cancellations are never
	// masked.
	KeepGoing bool

	// MaxRetries bounds retry-with-backoff for transient job failures
	// (errors satisfying IsTransient). The default 0 disables retries;
	// deterministic simulation errors are never retried regardless.
	MaxRetries int
	// Retry shapes the delay between transient-failure attempts: capped
	// exponential backoff (see Backoff). The zero value retries
	// immediately.
	Retry Backoff

	// Chaos, when non-nil, attaches the deterministic fault-injection
	// plane: scheduled worker panics, transient failures and worker
	// stalls fire inside simulateOnce, and the plane rides into each
	// system for the sim.stall / sim.corrupt points. Job keys are
	// "<mix>/<org>/<scheme>" (see ROBUSTNESS.md, "Fault injection").
	Chaos *faultinject.Plane

	// CheckInvariants arms mid-run periodic invariant checking on every
	// system built by this runner (the -check flag); the cheap end-of-run
	// conservation pass runs regardless.
	CheckInvariants bool

	// Simulate, when non-nil, replaces the local simulation datapath for
	// configurations not resolved by the memo cache or checkpoint store.
	// The engine's fault tests substitute a fake simulation here to inject
	// failures.
	Simulate func(ctx context.Context, cfg sim.Config) (*sim.Results, error)

	mu       sync.Mutex
	cache    map[sim.Config]*runEntry
	failed   map[sim.Config]error
	runs     int
	replayed int
}

// PanicError is a worker panic converted into a per-job error: the
// panicking configuration fails, the worker and every other job survive.
type PanicError struct {
	Value interface{} // the recovered panic value
	Stack []byte      // the goroutine stack at recovery, trimmed
}

// Error renders the panic headline plus the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v\n%s", e.Value, e.Stack)
}

// TransientError marks a failure as transient: the runner's bounded
// retry-with-backoff applies only to errors wrapped in (or implementing
// the same Transient() contract as) this type. Simulator determinism means
// genuine model errors never qualify; the class exists for environmental
// failures (I/O around the checkpoint store, future remote backends).
type TransientError struct{ Err error }

// Error reports the wrapped failure.
func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient reports retryability; satisfies the IsTransient contract.
func (e *TransientError) Transient() bool { return true }

// IsTransient reports whether err is marked retryable anywhere along its
// Unwrap chain. Deadline expiry is categorically non-transient, even when
// a Transient marker appears in the same chain: a job that exhausted its
// wall-clock budget would do it again on retry, doubling the budget the
// -job-timeout flag was supposed to cap.
func IsTransient(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// isCancellation reports whether err is a pure context cancellation —
// the one failure class that is never cached, never counted as a job
// failure, and never masked by KeepGoing (the job simply didn't run).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled)
}

// runEntry is one memo slot; done is closed once res/err are final.
type runEntry struct {
	done     chan struct{}
	res      *sim.Results
	err      error
	replayed bool // served from the checkpoint store, not simulated
}

// NewRunner builds a Runner at the given scale.
func NewRunner(s Scale) *Runner {
	return &Runner{Scale: s, cache: make(map[sim.Config]*runEntry)}
}

// Run executes (or recalls) one configuration.
func (r *Runner) Run(cfg sim.Config) (*sim.Results, error) {
	return r.RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation; under KeepGoing it
// masks (non-cancellation) failures into poisoned results.
func (r *Runner) RunContext(ctx context.Context, cfg sim.Config) (*sim.Results, error) {
	res, _, err := r.run(ctx, cfg)
	if err != nil && r.KeepGoing && !isCancellation(err) {
		return sim.PoisonedResults(), nil
	}
	return res, err
}

// run is the unmasked execution path (the Engine uses it directly so job
// failures stay visible for aggregation even under KeepGoing). Concurrent
// calls with equal configs singleflight through the memo cache; cancelled
// attempts are evicted so a later call re-simulates instead of replaying
// the cancellation.
func (r *Runner) run(ctx context.Context, cfg sim.Config) (*sim.Results, bool, error) {
	r.mu.Lock()
	if e, ok := r.cache[cfg]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("experiment: waiting on shared run: %w", ctx.Err())
		}
		return e.res, e.replayed, e.err
	}
	e := &runEntry{done: make(chan struct{})}
	r.cache[cfg] = e
	r.mu.Unlock()

	e.res, e.replayed, e.err = r.simulate(ctx, cfg)
	r.mu.Lock()
	if e.err != nil {
		if isCancellation(e.err) {
			// The job didn't fail — it was interrupted. Evict the entry so
			// a resume within this process re-simulates it.
			delete(r.cache, cfg)
		} else {
			if r.failed == nil {
				r.failed = make(map[sim.Config]error)
			}
			r.failed[cfg] = e.err
		}
	}
	r.mu.Unlock()
	close(e.done)
	return e.res, e.replayed, e.err
}

// simulate resolves one configuration: checkpoint-store replay when
// available, otherwise a fresh simulation with bounded retries for
// transient failures, persisting the result on success. The bool reports
// a store replay.
func (r *Runner) simulate(ctx context.Context, cfg sim.Config) (*sim.Results, bool, error) {
	var key string
	if r.Store != nil {
		k, err := checkpoint.KeyOf(cfg)
		if err != nil {
			return nil, false, err
		}
		key = k
		var stored sim.Results
		if ok, err := r.Store.Lookup(key, &stored); err != nil {
			return nil, false, err
		} else if ok {
			r.mu.Lock()
			r.replayed++
			r.mu.Unlock()
			return &stored, true, nil
		}
	}

	var err error
	for attempt := 0; ; attempt++ {
		var res *sim.Results
		res, err = r.simulateOnce(ctx, cfg)
		if err == nil {
			if r.Store != nil {
				if perr := r.Store.Put(key, res); perr != nil {
					return nil, false, perr
				}
			}
			return res, false, nil
		}
		if attempt >= r.MaxRetries || !IsTransient(err) || ctx.Err() != nil {
			break
		}
		if backoff := r.Retry.Delay(attempt); backoff > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, false, fmt.Errorf("experiment: cancelled during retry backoff: %w", ctx.Err())
			}
		}
	}
	return nil, false, err
}

// simulateOnce builds and runs one fresh system, attaching the observer
// hook and watchdog; a panic anywhere inside the simulation is recovered
// into a *PanicError so one bad job cannot take down its worker (or, with
// an aggregating engine, the sweep).
func (r *Runner) simulateOnce(ctx context.Context, cfg sim.Config) (res *sim.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: trimStack()}
		}
	}()
	r.mu.Lock()
	r.runs++
	r.mu.Unlock()
	key := chaosKey(cfg)
	if f, ok := r.Chaos.Fire(faultinject.JobPanic, key); ok {
		panic(fmt.Sprintf("chaos: injected worker panic (%s)", f))
	}
	if f, ok := r.Chaos.Fire(faultinject.JobTransient, key); ok {
		return nil, &TransientError{Err: fmt.Errorf("chaos: injected transient failure (%s)", f)}
	}
	if f, ok := r.Chaos.Fire(faultinject.WorkerStall, key); ok {
		// Model a wedged worker: hold the job for the injected duration. A
		// stall outlasting the per-job deadline must trip the -job-timeout
		// watchdog; a shorter one is just a slow worker and the job
		// proceeds normally.
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("experiment: stalled job %s cancelled (%s): %w", key, f, ctx.Err())
		case <-time.After(f.Dur):
		}
	}
	if r.Simulate != nil {
		return r.Simulate(ctx, cfg)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.StallLimit > 0 {
		sys.SetStallLimit(r.StallLimit)
	}
	if r.CheckInvariants {
		sys.EnableInvariantChecks(0)
	}
	sys.SetChaos(r.Chaos, key)
	if r.Observe != nil {
		r.Observe(sys)
	}
	if r.ObserveDone != nil {
		// Deferred so the hook runs even when the run panics (this defer
		// runs before the recover handler above converts the panic into a
		// *PanicError).
		defer r.ObserveDone(sys)
	}
	return sys.RunContext(ctx)
}

// chaosKey labels a job for fault-injection rule matching; the same
// string appears in firing logs and ROBUSTNESS.md examples.
func chaosKey(cfg sim.Config) string {
	return fmt.Sprintf("%s/%s/%s", cfg.Mix.ID, cfg.Org, cfg.Scheme)
}

// trimStack captures the current goroutine stack, truncated to a readable
// size for error messages.
func trimStack() []byte {
	buf := make([]byte, 4<<10)
	return buf[:runtime.Stack(buf, false)]
}

// NumRuns reports how many actual (non-memoised, non-replayed) simulations
// have been started, for reporting.
func (r *Runner) NumRuns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// Replayed reports how many configurations were served from the checkpoint
// store instead of simulating — the "resumed N jobs" number.
func (r *Runner) Replayed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replayed
}

// FailureOf returns the recorded (non-cancellation) failure for cfg, if
// any.
func (r *Runner) FailureOf(cfg sim.Config) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed[cfg]
}

// NumFailed reports how many distinct configurations have failed so far.
func (r *Runner) NumFailed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failed)
}

// Cached reports whether cfg already has a completed result.
func (r *Runner) Cached(cfg sim.Config) bool {
	r.mu.Lock()
	e, ok := r.cache[cfg]
	r.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Experiment is one paper artifact reproduction. Each experiment is split
// into two halves: Jobs enumerates every simulator configuration the
// artifact needs (the independent units a worker pool can execute in any
// order), and Run assembles the table, pulling each configuration from the
// runner — from its memo cache when an Engine pre-executed the jobs, or
// inline when called directly. Run therefore produces byte-identical
// output whether the jobs ran sequentially, in parallel, or not at all.
type Experiment struct {
	ID         string // "fig7", "tab1", "ablation-static", ...
	Title      string
	PaperClaim string // the headline shape the paper reports
	Jobs       func(s Scale) []sim.Config
	Run        func(r *Runner) (*stats.Table, error)
}

// registry is populated by the figures/ablations files' init-style
// builders below.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID (figN numerically, then
// ablations, then tables).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i].ID, out[j].ID) })
	return out
}

// less orders fig1 < fig3 < fig10 correctly.
func less(a, b string) bool {
	na, oka := figNum(a)
	nb, okb := figNum(b)
	if oka && okb {
		return na < nb
	}
	if oka != okb {
		return oka // figures before everything else
	}
	return a < b
}

func figNum(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n, true
	}
	return 0, false
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
