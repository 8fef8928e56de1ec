package chaos

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/faultinject"
)

// TestSweepContract runs a batch of seeded schedules and requires every
// run to land in an allowed outcome — the same assertion the CI chaos job
// makes at larger seed counts.
func TestSweepContract(t *testing.T) {
	rep, err := Sweep(context.Background(), Options{Seed: 1, Runs: 12})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(rep.Runs) != 12 {
		t.Fatalf("reported %d runs, want 12", len(rep.Runs))
	}
	if rep.Clean+rep.Resumed != 12 {
		t.Errorf("outcomes clean=%d resumed=%d do not cover 12 runs", rep.Clean, rep.Resumed)
	}
	for _, r := range rep.Runs {
		if r.Outcome != "clean" && r.Outcome != "resumed" {
			t.Errorf("seed %d: outcome %q", r.Seed, r.Outcome)
		}
		if r.Outcome == "resumed" && r.Class == "" {
			t.Errorf("seed %d: failed run with no class: %s", r.Seed, r.Err)
		}
	}
}

// TestSweepDeterminism is the `make race-chaos` core: the same seed and
// schedule must reproduce the identical firing sequence and outcome, with
// a single worker, run to run.
func TestSweepDeterminism(t *testing.T) {
	opts := Options{Seed: 4, Runs: 3, Workers: 1}
	a, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	b, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Schedule != rb.Schedule {
			t.Errorf("seed %d: schedules differ: %q vs %q", ra.Seed, ra.Schedule, rb.Schedule)
		}
		if ra.Log != rb.Log {
			t.Errorf("seed %d: firing logs differ:\n%s\nvs\n%s", ra.Seed, ra.Log, rb.Log)
		}
		if ra.Outcome != rb.Outcome || ra.Class != rb.Class {
			t.Errorf("seed %d: outcome %s/%s vs %s/%s", ra.Seed, ra.Outcome, ra.Class, rb.Outcome, rb.Class)
		}
	}
}

// TestSweepOutcomeContractUnderParallelWorkers exercises the weaker
// parallel-worker guarantee: firing ordinals may shift with interleaving,
// but every run must still end clean or classified-and-resumable.
func TestSweepOutcomeContractUnderParallelWorkers(t *testing.T) {
	rep, err := Sweep(context.Background(), Options{Seed: 20, Runs: 6, Workers: 4})
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if rep.Clean+rep.Resumed != 6 {
		t.Errorf("outcomes do not cover all runs: %+v", rep)
	}
}

// TestPointSchedules fires every injection point once, through an
// explicit single-rule schedule at the largest ordinal, count and
// duration faultinject.Generate draws for it, with one worker so the
// firing order is fixed. Each row must fire its point (per the plane's
// firing log) and land in the expected outcome and class; rows run in
// parallel, each with its own plane, store and engine. The store.torn row
// also pins the full torn-write path: the tear fails the sweep with a
// store-classified error, fsck flags the torn tail, and the resume
// reproduces the golden bytes. The clean-outcome row is checked for its
// effect as well, since firing alone proves nothing there:
// job.transient:2 must cost exactly two extra simulations. The seeded
// 100-schedule sweep (TestSeamCoverage) runs under the chaossweep build
// tag.
//
// The job deadline is not under test except in the worker.stall row, and
// under the race detector a micro job takes seconds, so the default 1 s
// deadline would turn every row into a timeout. Rows get a minute; the
// stall row gets 10 s, well short of its one-minute stall, and runs first
// so its wait overlaps the other rows.
func TestPointSchedules(t *testing.T) {
	rows := []struct {
		schedule, outcome, class string
	}{
		{"worker.stall:1x1m@3", "resumed", "timeout"},
		{"checkpoint.write:1@3", "resumed", "store"},
		{"checkpoint.fsync:1@3", "resumed", "store"},
		{"store.torn:1@3", "resumed", "store"},
		{"job.panic:1@4", "resumed", "panic"},
		{"job.transient:2", "clean", ""},
		{"sim.stall:1@8", "resumed", "stall"},
		{"sim.corrupt:1@19", "resumed", "invariant"},
	}
	largest := make(map[faultinject.Point]faultinject.Rule)
	for seed := uint64(0); seed < 1000; seed++ {
		for _, r := range faultinject.Generate(seed) {
			m := largest[r.Point]
			m.Point = r.Point
			m.Nth = max(m.Nth, r.Nth)
			m.Count = max(m.Count, r.Count)
			m.Dur = max(m.Dur, r.Dur)
			largest[r.Point] = m
		}
	}
	if len(rows) != len(largest) {
		t.Errorf("%d rows for %d generated points", len(rows), len(largest))
	}
	exp, ok := experiment.ByID(ExperimentID)
	if !ok {
		t.Fatalf("experiment %q not registered", ExperimentID)
	}
	fig3Jobs := len(exp.Jobs(MicroScale))

	for _, row := range rows {
		t.Run(row.schedule, func(t *testing.T) {
			t.Parallel()
			sched := faultinject.MustParse(row.schedule)
			rule := sched[0]
			if want := largest[rule.Point]; rule != want {
				t.Errorf("Generate draws at most %q", want)
			}
			opts := Options{Schedule: sched, Workers: 1, JobTimeout: time.Minute}
			if rule.Point == faultinject.WorkerStall {
				opts.JobTimeout = 10 * time.Second
			}
			rep, err := Sweep(context.Background(), opts)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			r := rep.Runs[0]
			if !slices.Contains(r.Points, string(rule.Point)) {
				t.Errorf("%s never fired; firing log:\n%s", rule.Point, r.Log)
			}
			if r.Outcome != row.outcome || r.Class != row.class {
				t.Errorf("outcome %s/%s, want %s/%s (%s)", r.Outcome, r.Class, row.outcome, row.class, r.Err)
			}
			switch rule.Point {
			case faultinject.StoreTorn:
				if !r.TornTail {
					t.Error("fsck saw no torn tail after an injected torn write")
				}
			case faultinject.JobTransient:
				// Each injected transient failure is one extra attempt.
				if want := fig3Jobs + rule.Count; r.Simulations != want {
					t.Errorf("%d simulations, want %d (%d jobs + %d retries)",
						r.Simulations, want, fig3Jobs, rule.Count)
				}
			}
		})
	}
}

// TestExplicitReadmeSchedule keeps the documented example schedule valid
// end to end.
func TestExplicitReadmeSchedule(t *testing.T) {
	spec := "checkpoint.write:err@3;store.torn:1;job.panic:gups;worker.stall:2x50ms"
	rep, err := Sweep(context.Background(), Options{
		Schedule: faultinject.MustParse(spec),
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	r := rep.Runs[0]
	if r.Outcome != "resumed" {
		t.Fatalf("outcome = %s/%s", r.Outcome, r.Class)
	}
}

func TestClassifyUnknownIsEmpty(t *testing.T) {
	if c := Classify(nil); c != "" {
		t.Errorf("Classify(nil) = %q", c)
	}
	if c := Classify(context.Canceled); c != "cancelled" {
		t.Errorf("Classify(canceled) = %q", c)
	}
}
