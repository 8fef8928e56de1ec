package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/workload"
)

// robustConfig is a fast two-core run for the cancellation/watchdog tests.
func robustConfig() Config {
	cfg := DefaultConfig()
	cfg.Mix = workload.Mix{ID: "t", VM1: workload.GUPS, VM2: workload.StreamCluster}
	cfg.Cores = 2
	cfg.Scale = 0.1
	cfg.MaxRefsPerCore = 30_000
	cfg.WarmupRefs = 6_000
	return cfg
}

// TestRunContextCancellation checks a cancelled context stops the run loop
// promptly with a wrapped context error instead of running to completion.
func TestRunContextCancellation(t *testing.T) {
	sys := MustNew(robustConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first poll: the loop must bail out
	res, err := sys.RunContext(ctx)
	if err == nil {
		t.Fatal("RunContext completed under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned results")
	}
}

// TestRunContextBackgroundMatchesRun checks the context plumbing is
// passive: RunContext(Background) must produce the same measurements as
// the plain Run path did for an identical configuration.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := robustConfig()
	a, err := MustNew(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MustNew(cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPCGeomean != b.IPCGeomean || a.Instructions != b.Instructions || a.Cycles != b.Cycles {
		t.Errorf("RunContext diverged from Run: %+v vs %+v", a, b)
	}
}

// TestStallWatchdogFires drives the run loop's poll directly (the block
// TestRunContextCancellation shows the loop calls): two polls with no
// retirement progress and a cycle gap beyond the limit must produce a
// StallError carrying the memory-system dump. (The organic run loop cannot
// livelock today — every Step retires — so the guard is exercised
// white-box; it exists to catch future queue bugs.)
func TestStallWatchdogFires(t *testing.T) {
	sys := MustNew(robustConfig())
	sys.SetStallLimit(1_000)

	// Run to completion so the core clocks are far past the limit, then
	// stage a stalled window: instructions frozen at their current total
	// while the recorded progress point sits at cycle 0.
	if _, err := sys.RunContext(context.Background()); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	sys.dog.primed = true
	sys.dog.lastInstr = sys.instrTotal()
	sys.dog.lastProgress = 0

	err := sys.poll(context.Background())
	if err == nil {
		t.Fatal("watchdog silent across a stalled window")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error %T is not a *StallError", err)
	}
	if stall.Limit != 1_000 {
		t.Errorf("stall limit %d recorded, want 1000", stall.Limit)
	}
	if !strings.Contains(stall.Dump, "dram.") || !strings.Contains(stall.Dump, "sim.") {
		t.Errorf("stall dump missing queue/occupancy groups:\n%s", stall.Dump)
	}
	if !strings.Contains(err.Error(), "no instruction retired") {
		t.Errorf("unhelpful stall message: %v", err)
	}
}

// TestStallWatchdogQuietOnProgress checks that polls observing retirement
// progress re-anchor instead of erroring, and that a zero limit disables
// the guard entirely.
func TestStallWatchdogQuietOnProgress(t *testing.T) {
	cfg := robustConfig()
	sys := MustNew(cfg)
	sys.SetStallLimit(500)
	if _, err := sys.RunContext(context.Background()); err != nil {
		t.Fatalf("watchdog tripped on a healthy run: %v", err)
	}

	disabled := MustNew(cfg)
	disabled.dog.lastProgress = 0 // would trip instantly if armed
	if err := disabled.checkStall(); err != nil {
		t.Fatalf("disabled watchdog errored: %v", err)
	}
}

// TestWatchdogDoesNotPerturbResults: an armed (but never firing) watchdog
// must leave every measurement byte-identical to an unguarded run.
func TestWatchdogDoesNotPerturbResults(t *testing.T) {
	cfg := robustConfig()
	plain, err := MustNew(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	guarded := MustNew(cfg)
	guarded.SetStallLimit(10_000_000)
	res, err := guarded.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain.IPCGeomean != res.IPCGeomean || plain.Cycles != res.Cycles ||
		plain.L2TLBMPKI != res.L2TLBMPKI || plain.PageWalks != res.PageWalks {
		t.Errorf("watchdog perturbed results: %+v vs %+v", plain, res)
	}
}
