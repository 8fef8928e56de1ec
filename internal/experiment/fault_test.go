package experiment

// Fault-injection tests for the robustness layer: panic isolation,
// cancellation, per-job deadlines, keep-going ERR rendering, invariant
// violations, and kill/resume determinism against the checkpoint store.
// Faults are injected through the Runner's Simulate or Observe hooks so
// each test controls exactly which configuration misbehaves and how.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/invariant"
	"github.com/csalt-sim/csalt/internal/sim"
)

// faultJobs builds n distinct synthetic jobs (configs differing only by
// seed) — enough structure for the engine without real simulation cost.
func faultJobs(n int) []Job {
	base := microScale.BaseConfig()
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := base
		cfg.Seed = uint64(i + 1)
		jobs[i] = Job{Config: cfg, Experiments: []string{fmt.Sprintf("job%d", i)}}
	}
	return jobs
}

// okResults returns a minimal healthy result for hook-simulated jobs.
func okResults() *sim.Results {
	return &sim.Results{SchemeName: "hook", OrgName: "hook", IPCGeomean: 1, Cycles: 100, Instructions: 100}
}

func TestWorkerPanicFailsOnlyItsJob(t *testing.T) {
	jobs := faultJobs(6)
	bad := jobs[2].Config
	eng := NewEngine(microScale, 3)
	eng.KeepGoing = true
	eng.Runner.Simulate = func(_ context.Context, cfg sim.Config) (*sim.Results, error) {
		if cfg == bad {
			panic("injected fault")
		}
		return okResults(), nil
	}

	err := eng.Execute(jobs)
	if err == nil {
		t.Fatal("panicking job did not surface an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "injected fault") {
		t.Errorf("error does not describe the panic: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error chain lacks *PanicError: %v", err)
	} else if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	es := eng.Stats()
	if es.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", es.JobsFailed)
	}
	for i, j := range jobs {
		if i == 2 {
			continue
		}
		if !eng.Runner.Cached(j.Config) {
			t.Errorf("job %d did not complete despite keep-going", i)
		}
	}
}

func TestFailFastSkipsRemainingJobs(t *testing.T) {
	jobs := faultJobs(8)
	bad := jobs[0].Config
	eng := NewEngine(microScale, 1) // sequential: the failure lands first
	eng.Runner.Simulate = func(_ context.Context, cfg sim.Config) (*sim.Results, error) {
		if cfg == bad {
			return nil, errors.New("boom")
		}
		return okResults(), nil
	}
	if err := eng.Execute(jobs); err == nil {
		t.Fatal("failure not reported")
	}
	es := eng.Stats()
	if es.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", es.JobsFailed)
	}
	if es.JobsSkipped != len(jobs)-1 {
		t.Errorf("JobsSkipped = %d, want %d", es.JobsSkipped, len(jobs)-1)
	}
}

func TestContextCancelMidSweep(t *testing.T) {
	jobs := faultJobs(8)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	eng := NewEngine(microScale, 2)
	eng.Runner.Simulate = func(hctx context.Context, _ sim.Config) (*sim.Results, error) {
		if started.Add(1) == 2 {
			cancel() // pull the plug while jobs are in flight
		}
		select {
		case <-hctx.Done():
			return nil, fmt.Errorf("hook: %w", hctx.Err())
		case <-time.After(5 * time.Millisecond):
			return okResults(), nil
		}
	}

	err := eng.ExecuteContext(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Errorf("error does not mention the interruption: %v", err)
	}
	es := eng.Stats()
	if es.JobsSkipped == 0 {
		t.Error("no jobs counted as skipped after mid-sweep cancel")
	}
	if es.JobsFailed != 0 {
		t.Errorf("cancellation misclassified as %d job failures", es.JobsFailed)
	}
}

func TestJobTimeoutFailsOverrunningJob(t *testing.T) {
	jobs := faultJobs(3)
	slow := jobs[1].Config
	eng := NewEngine(microScale, 1)
	eng.KeepGoing = true
	eng.JobTimeout = 20 * time.Millisecond
	eng.Runner.Simulate = func(hctx context.Context, cfg sim.Config) (*sim.Results, error) {
		if cfg == slow {
			<-hctx.Done() // wedge until the per-job deadline fires
			return nil, fmt.Errorf("hook: %w", hctx.Err())
		}
		return okResults(), nil
	}

	err := eng.Execute(jobs)
	if err == nil {
		t.Fatal("overrunning job not reported")
	}
	if !strings.Contains(err.Error(), "wall-clock deadline") {
		t.Errorf("error does not name the deadline: %v", err)
	}
	es := eng.Stats()
	if es.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", es.JobsFailed)
	}
	if es.JobsSkipped != 0 {
		t.Errorf("timeout misclassified as skip (JobsSkipped = %d)", es.JobsSkipped)
	}
}

func TestDeterministicErrorNotRetried(t *testing.T) {
	var calls atomic.Int32
	r := NewRunner(microScale)
	r.Simulate = func(_ context.Context, _ sim.Config) (*sim.Results, error) {
		calls.Add(1)
		return nil, errors.New("deterministic model error")
	}
	if _, err := r.Run(microScale.BaseConfig()); err == nil {
		t.Fatal("error swallowed")
	}
	if calls.Load() != 1 {
		t.Errorf("failed job retried %d times", calls.Load()-1)
	}
}

// fig3Table runs fig3 at micro scale through an engine and returns the
// rendered table string.
func fig3Table(t *testing.T, eng *Engine) string {
	t.Helper()
	exp, ok := ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	table, err := eng.Run(exp)
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	return table.String()
}

func TestKillResumeByteIdenticalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep resume test")
	}
	exp, ok := ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}

	// Reference: one uninterrupted sweep.
	ref := NewEngine(microScale, 2)
	golden := fig3Table(t, ref)

	// Interrupted: cancel after the first couple of jobs land, with every
	// completed result persisted to the store.
	dir := t.TempDir()
	store, err := checkpoint.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := NewEngine(microScale, 1) // sequential: deterministic cut point
	first.Runner.Store = store
	first.Progress = func(p Progress) {
		if p.Done == 2 {
			cancel()
		}
	}
	execErr := first.ExecuteContext(ctx, first.Jobs(exp))
	if execErr == nil {
		t.Fatal("interrupted sweep reported success")
	}
	durable := store.Len()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if durable == 0 {
		t.Fatal("no results persisted before the kill")
	}
	total := len(first.Jobs(exp))
	if durable >= total {
		t.Fatalf("kill landed too late: %d of %d jobs persisted", durable, total)
	}

	// The kill lands mid-append: the store ends in the first half of one
	// more record, as a crash between a record's bytes leaves it.
	path := filepath.Join(dir, checkpoint.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(last[:len(last)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fsck, err := checkpoint.Fsck(dir)
	if err != nil {
		t.Fatalf("fsck of the killed sweep's store: %v", err)
	}
	if fsck.TornTail == 0 || fsck.Records != durable {
		t.Fatalf("fsck = %+v, want %d records and a torn tail", fsck, durable)
	}

	// Resume: a fresh engine (fresh process stand-in) over the same store.
	store2, err := checkpoint.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Replayed() != durable {
		t.Fatalf("store replayed %d records, want %d", store2.Replayed(), durable)
	}
	resumed := NewEngine(microScale, 2)
	resumed.Runner.Store = store2
	got := fig3Table(t, resumed)

	if got != golden {
		t.Errorf("resumed table differs from uninterrupted run:\n--- golden ---\n%s--- resumed ---\n%s", golden, got)
	}
	if n := resumed.Runner.Replayed(); n != durable {
		t.Errorf("resumed sweep replayed %d jobs, want %d", n, durable)
	}
	if n := resumed.Runner.NumRuns(); n != total-durable {
		t.Errorf("resumed sweep simulated %d jobs, want only the %d unfinished", n, total-durable)
	}
	// The resume cut the torn tail before appending: every job is on
	// record and the store ends on a record boundary.
	if fsck, err := store2.Fsck(); err != nil || fsck.TornTail != 0 || fsck.Records != total {
		t.Errorf("fsck after resume = %+v, %v; want %d records and no torn tail", fsck, err, total)
	}
}

func TestKeepGoingRendersERRCells(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-scale sweep")
	}
	exp, ok := ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	eng := NewEngine(microScale, 2)
	jobs := eng.Jobs(exp)
	if len(jobs) < 2 {
		t.Fatalf("fig3 has only %d jobs", len(jobs))
	}
	bad := jobs[len(jobs)-1].Config
	eng.KeepGoing = true
	eng.Runner.Simulate = func(ctx context.Context, cfg sim.Config) (*sim.Results, error) {
		if cfg == bad {
			return nil, errors.New("injected failure")
		}
		// Delegate to the real simulator so healthy cells hold real numbers.
		sys, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		return sys.RunContext(ctx)
	}

	table, err := eng.Run(exp)
	if table == nil {
		t.Fatalf("keep-going returned no table (err: %v)", err)
	}
	if err == nil {
		t.Error("keep-going masked the failure from the caller")
	}
	out := table.String()
	if !strings.Contains(out, "ERR") {
		t.Errorf("failed job's cells not rendered as ERR:\n%s", out)
	}
	if es := eng.Stats(); es.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", es.JobsFailed)
	}
}

// An invariant violation under KeepGoing must poison exactly the
// corrupted configuration's cells: the table renders with ERR where the
// violating run's numbers would be, healthy rows intact, and the recorded
// failure is the Violation. With no warm-up, no stats reset wipes the
// counter the Observe hook bumps before the run.
func TestInvariantViolationRendersAsErrCell(t *testing.T) {
	scale := microScale
	scale.Warmup = 0
	exp, ok := ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	bad := exp.Jobs(scale)[1]
	eng := NewEngine(scale, 1)
	eng.KeepGoing = true
	eng.Runner.Observe = func(sys *sim.System) {
		if sys.Config() == bad {
			sys.CorruptForTest("tlb-counter")
		}
	}
	table, err := eng.Run(exp)
	if err == nil {
		t.Fatal("corrupted run reported no failure")
	}
	if table == nil {
		t.Fatal("keep-going rendered no table")
	}
	for _, line := range strings.Split(table.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		errs := strings.Count(line, "ERR")
		switch fields[0] {
		case bad.Mix.ID:
			if errs != 2 {
				t.Errorf("corrupted row has %d ERR cells, want 2: %q", errs, line)
			}
		case "geomean":
			if n := strings.Count(line, "(1 dropped)"); n != 2 {
				t.Errorf("geomean row marks %d columns as dropping one entry, want 2: %q", n, line)
			}
		default:
			if errs != 0 {
				t.Errorf("violation poisoned another row: %q", line)
			}
		}
	}
	if eng.Runner.NumFailed() != 1 {
		t.Errorf("NumFailed = %d, want 1", eng.Runner.NumFailed())
	}
	if _, ok := invariant.IsViolation(eng.Runner.FailureOf(bad)); !ok {
		t.Errorf("recorded failure is not a Violation: %v", eng.Runner.FailureOf(bad))
	}
}
