package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/stats"
)

// Job is one independent simulation unit: a single configuration plus the
// experiments that requested it. Jobs carry no shared state — each one
// builds and runs its own system — so a pool of workers may execute them
// in any order and any interleaving.
type Job struct {
	Config sim.Config
	// Experiments lists the IDs that need this configuration, in request
	// order; shared baselines (e.g. the POM-TLB runs of Figures 7, 8, 10
	// and 11) are deduplicated into one job with several owners.
	Experiments []string
}

// Label renders a short human-readable description for progress lines.
func (j Job) Label() string {
	owner := "?"
	if len(j.Experiments) > 0 {
		owner = j.Experiments[0]
		if n := len(j.Experiments); n > 1 {
			owner = fmt.Sprintf("%s(+%d)", owner, n-1)
		}
	}
	c := j.Config
	return fmt.Sprintf("%s %s %s/%s", owner, c.Mix.ID, c.Org, c.Scheme)
}

// Progress describes one completed job; the Engine reports it after every
// job finishes — success or failure — so callers can render counters,
// throughput, ETA and failure lines.
type Progress struct {
	Done    int           // jobs completed so far (including this one)
	Total   int           // jobs in this Execute call
	Failed  int           // jobs failed so far (included in Done)
	Label   string        // the completed job's Label
	Elapsed time.Duration // wall time of this job alone
	Since   time.Duration // wall time since Execute started

	// Err is the job's failure, nil on success. Cancelled (skipped) jobs
	// produce no progress event at all.
	Err error

	// Throughput counters of the completed job's simulation (measured
	// phase). Zero when the job was a memo-cache hit, a checkpoint-store
	// replay, or a failure.
	Cycles       uint64
	Instructions uint64
}

// Throughput returns the completed job's simulated-cycle throughput in
// cycles per second of wall time (0 for cache hits or instant jobs).
func (p Progress) Throughput() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Cycles) / p.Elapsed.Seconds()
}

// EngineStats aggregates per-job throughput and outcome counters across an
// engine's lifetime; cmd/experiments exports them via -metrics-out, the
// end-of-run summary and the SIGQUIT diagnostics dump.
type EngineStats struct {
	JobsRun         int           // jobs that actually simulated (not memo hits or replays)
	JobsReplayed    int           // jobs served from the checkpoint store (-resume)
	JobsFailed      int           // jobs that ended in a (non-cancellation) error
	JobsSkipped     int           // jobs never run: after a failure (fail-fast) or a cancellation
	JobWall         time.Duration // summed wall time of simulated jobs
	SimCycles       uint64        // summed measured cycles across jobs
	SimInstructions uint64        // summed measured instructions across jobs
}

// CyclesPerSecond returns the aggregate simulated-cycle throughput over
// summed per-job wall time (parallel jobs therefore exceed any single
// job's rate when divided by real elapsed time).
func (s EngineStats) CyclesPerSecond() float64 {
	if s.JobWall <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.JobWall.Seconds()
}

// ETA extrapolates the remaining wall time from the average job cost seen
// so far, scaled by the worker count currently in flight.
func (p Progress) ETA() time.Duration {
	if p.Done == 0 {
		return 0
	}
	perJob := p.Since / time.Duration(p.Done)
	return perJob * time.Duration(p.Total-p.Done)
}

// Engine executes experiment job lists across a bounded worker pool,
// filling a Runner's memo cache, then renders tables sequentially from
// that cache. Because rendering consumes results in the same deterministic
// order as a sequential run — and each configuration's simulation is
// itself deterministic — the output tables are byte-identical at every
// parallelism level.
type Engine struct {
	Runner *Runner
	// Workers bounds the pool; <= 0 selects runtime.GOMAXPROCS(0). The
	// simulator is single-goroutine per system, so there is never a reason
	// to exceed one worker per CPU.
	Workers int
	// Progress, when non-nil, is invoked after each job completes (success
	// or failure). Calls are serialized by the engine; the callback needs
	// no locking.
	Progress func(Progress)
	// KeepGoing keeps the sweep running past job failures: every job is
	// attempted, failures are aggregated into the returned error, and
	// table renderers mark cells derived from failed runs as ERR (the
	// engine mirrors the flag onto its Runner at Execute time). The
	// default fail-fast mode stops dispatching after the first failure and
	// counts the rest as skipped.
	KeepGoing bool
	// JobTimeout, when positive, bounds each job's wall-clock time: a job
	// exceeding it is cancelled and counted as failed (not skipped), with
	// an error naming the deadline. The engine-level counterpart of the
	// in-simulator stall watchdog.
	JobTimeout time.Duration

	statsMu sync.Mutex
	stats   EngineStats
}

// Stats returns a copy of the engine's aggregate throughput counters. It
// is safe to call concurrently with an executing sweep — the SIGQUIT
// diagnostics dump reads it mid-sweep.
func (e *Engine) Stats() EngineStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// OnProgress appends fn to the engine's progress notifications, preserving
// any callback already installed. Listeners run serialized, in
// registration order, on the completing job's goroutine. Register before
// Execute; the method is not safe concurrently with a running sweep.
func (e *Engine) OnProgress(fn func(Progress)) {
	prev := e.Progress
	if prev == nil {
		e.Progress = fn
		return
	}
	e.Progress = func(p Progress) {
		prev(p)
		fn(p)
	}
}

// NewEngine builds an engine over a fresh runner at the given scale.
func NewEngine(s Scale, workers int) *Engine {
	return &Engine{Runner: NewRunner(s), Workers: workers}
}

// workers resolves the effective pool size for n jobs.
func (e *Engine) workers(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Jobs enumerates the deduplicated job list behind a set of experiments at
// the engine's scale, in first-request order. Experiments without a job
// enumerator contribute nothing (their Run falls back to inline, sequential
// simulation).
func (e *Engine) Jobs(exps ...Experiment) []Job {
	seen := make(map[sim.Config]int)
	var out []Job
	for _, ex := range exps {
		if ex.Jobs == nil {
			continue
		}
		for _, cfg := range ex.Jobs(e.Runner.Scale) {
			if i, ok := seen[cfg]; ok {
				if owners := out[i].Experiments; len(owners) == 0 || owners[len(owners)-1] != ex.ID {
					out[i].Experiments = append(owners, ex.ID)
				}
				continue
			}
			seen[cfg] = len(out)
			out = append(out, Job{Config: cfg, Experiments: []string{ex.ID}})
		}
	}
	return out
}

// Execute runs the jobs across the worker pool with a background context;
// see ExecuteContext.
func (e *Engine) Execute(jobs []Job) error {
	return e.ExecuteContext(context.Background(), jobs)
}

// ExecuteContext runs the jobs across the worker pool, filling the
// runner's memo cache. Every job failure is collected (one wrapped error
// per failed job, joined with errors.Join) rather than only the first. In
// the default fail-fast mode, jobs not yet started when the first failure
// lands are skipped and counted in EngineStats.JobsSkipped; with KeepGoing
// every job is still attempted. Cancelling ctx stops dispatch promptly:
// in-flight simulations notice within a few hundred steps, remaining jobs
// are counted as skipped, and the joined error includes the cancellation.
// Worker panics are isolated by the runner into per-job failures, so the
// pool itself never dies.
func (e *Engine) ExecuteContext(ctx context.Context, jobs []Job) error {
	if len(jobs) == 0 {
		return nil
	}
	// Renderers must mask the same failures the engine tolerates.
	e.Runner.KeepGoing = e.KeepGoing
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errs   []error
		done   int
		failed int
	)
	start := time.Now()
	ch := make(chan Job)
	for w := e.workers(len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				mu.Lock()
				abort := (len(errs) > 0 && !e.KeepGoing) || ctx.Err() != nil
				mu.Unlock()
				if abort {
					e.statsMu.Lock()
					e.stats.JobsSkipped++
					e.statsMu.Unlock()
					continue
				}
				e.runJob(ctx, j, len(jobs), start, &mu, &errs, &done, &failed)
			}
		}()
	}
dispatch:
	for i, j := range jobs {
		select {
		case ch <- j:
		case <-ctx.Done():
			e.statsMu.Lock()
			e.stats.JobsSkipped += len(jobs) - i
			e.statsMu.Unlock()
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		e.statsMu.Lock()
		skipped := e.stats.JobsSkipped
		e.statsMu.Unlock()
		errs = append(errs, fmt.Errorf("sweep interrupted with %d of %d jobs done (%d skipped): %w",
			done, len(jobs), skipped, err))
	}
	return errors.Join(errs...)
}

// runJob executes one job, classifying its outcome into the shared
// progress/error state: success, failure (aggregated), or cancellation
// (skipped, no progress event).
func (e *Engine) runJob(ctx context.Context, j Job, total int, start time.Time,
	mu *sync.Mutex, errs *[]error, done, failed *int) {
	jobCtx, cancel := ctx, func() {}
	if e.JobTimeout > 0 {
		jobCtx, cancel = context.WithTimeout(ctx, e.JobTimeout)
	}
	cached := e.Runner.Cached(j.Config)
	t0 := time.Now()
	res, replayed, err := e.Runner.run(jobCtx, j.Config)
	timedOut := err != nil && jobCtx.Err() != nil && ctx.Err() == nil
	cancel()
	elapsed := time.Since(t0)

	if err != nil && isCancellation(err) && !timedOut {
		// The parent context was cancelled: the job didn't run and didn't
		// fail. It counts as skipped; the dispatcher adds the tail.
		e.statsMu.Lock()
		e.stats.JobsSkipped++
		e.statsMu.Unlock()
		return
	}

	var cycles, instrs uint64
	e.statsMu.Lock()
	switch {
	case err != nil:
		e.stats.JobsFailed++
	case replayed:
		e.stats.JobsReplayed++
	case !cached:
		cycles, instrs = res.Cycles, res.Instructions
		e.stats.JobsRun++
		e.stats.JobWall += elapsed
		e.stats.SimCycles += cycles
		e.stats.SimInstructions += instrs
	}
	e.statsMu.Unlock()

	mu.Lock()
	defer mu.Unlock()
	*done++
	if err != nil {
		*failed++
		if timedOut {
			err = fmt.Errorf("job exceeded %v wall-clock deadline: %w", e.JobTimeout, err)
		}
		*errs = append(*errs, fmt.Errorf("%s: %w", j.Label(), err))
	}
	if e.Progress != nil {
		e.Progress(Progress{
			Done: *done, Total: total, Failed: *failed, Label: j.Label(),
			Elapsed: elapsed, Since: time.Since(start), Err: err,
			Cycles: cycles, Instructions: instrs,
		})
	}
}

// Run executes one experiment end to end: fan its jobs out across the
// pool, then render its table sequentially from the memo cache. Under
// KeepGoing a table may be returned alongside a non-nil joined error, with
// cells derived from failed jobs marked ERR.
func (e *Engine) Run(exp Experiment) (*stats.Table, error) {
	return e.RunContext(context.Background(), exp)
}

// RunContext is Run with cooperative cancellation.
func (e *Engine) RunContext(ctx context.Context, exp Experiment) (*stats.Table, error) {
	execErr := e.ExecuteContext(ctx, e.Jobs(exp))
	if execErr != nil && (!e.KeepGoing || ctx.Err() != nil) {
		return nil, execErr
	}
	t, err := exp.Run(e.Runner)
	if err != nil {
		return nil, errors.Join(execErr, err)
	}
	return t, execErr
}

// RunAll executes several experiments as one shared job pool (so baselines
// common to multiple figures are simulated once), then renders every table
// in order. Tables are returned parallel to exps. Under KeepGoing, tables
// render with ERR cells for failed jobs and the joined job errors are
// returned alongside them.
func (e *Engine) RunAll(exps []Experiment) ([]*stats.Table, error) {
	return e.RunAllContext(context.Background(), exps)
}

// RunAllContext is RunAll with cooperative cancellation.
func (e *Engine) RunAllContext(ctx context.Context, exps []Experiment) ([]*stats.Table, error) {
	execErr := e.ExecuteContext(ctx, e.Jobs(exps...))
	if execErr != nil && (!e.KeepGoing || ctx.Err() != nil) {
		return nil, execErr
	}
	tables := make([]*stats.Table, len(exps))
	for i, ex := range exps {
		t, err := ex.Run(e.Runner)
		if err != nil {
			return nil, errors.Join(execErr, fmt.Errorf("%s: %w", ex.ID, err))
		}
		tables[i] = t
	}
	return tables, execErr
}
