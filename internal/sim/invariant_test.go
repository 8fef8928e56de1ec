package sim

import (
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/faultinject"
	"github.com/csalt-sim/csalt/internal/invariant"
)

// A healthy run must pass every registered invariant — the always-on
// end-of-run check already enforces this inside Run, but asserting it
// directly keeps the contract visible.
func TestInvariantsHoldOnHealthyRun(t *testing.T) {
	sys := MustNew(tinyConfig())
	sys.EnableInvariantChecks(0) // include the structural set
	if _, err := sys.Run(); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("post-run check: %v", err)
	}
}

func TestCorruptTLBCounterTripsInvariant(t *testing.T) {
	sys := MustNew(tinyConfig())
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sys.CorruptForTest("tlb-counter")
	err := sys.CheckInvariants()
	if err == nil {
		t.Fatal("corrupted TLB counter passed the conservation check")
	}
	v, ok := invariant.IsViolation(err)
	if !ok {
		t.Fatalf("error is not a Violation: %v", err)
	}
	if !strings.HasPrefix(v.Check, "tlb.") || !strings.HasSuffix(v.Check, ".conservation") {
		t.Errorf("violation names %q, want a tlb conservation law", v.Check)
	}
}

func TestCorruptPartitionTripsStructuralCheck(t *testing.T) {
	sys := MustNew(tinyConfig())
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sys.CorruptForTest("partition")
	// The partition law is structural: invisible to the cheap set, caught
	// once periodic checking arms the structural set. Builds under the
	// `invariants` tag arm the structural set at construction, so the
	// cheap-only stage exists only in untagged builds.
	if !invariantsTagEnabled {
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("cheap set should not see the partition: %v", err)
		}
		sys.EnableInvariantChecks(0)
	}
	err := sys.CheckInvariants()
	if err == nil {
		t.Fatal("corrupted partition passed the structural check")
	}
	v, ok := invariant.IsViolation(err)
	if !ok || !strings.Contains(v.Check, ".structure") {
		t.Errorf("violation = %v (IsViolation=%v), want a cache structure law", err, ok)
	}
}

// The sim.corrupt chaos point must surface as a failed run: the injected
// counter bump happens mid-run (post-warmup poll) and the always-on
// end-of-run conservation pass rejects the results.
func TestChaosCorruptFailsRun(t *testing.T) {
	sys := MustNew(tinyConfig())
	plane := faultinject.New(faultinject.MustParse("sim.corrupt:1@40"))
	sys.SetChaos(plane, "test/pom/none")
	_, err := sys.Run()
	if plane.Fired() != 1 {
		t.Fatalf("corrupt point fired %d times, want 1 (log:\n%s)", plane.Fired(), plane.LogString())
	}
	if _, ok := invariant.IsViolation(err); !ok {
		t.Fatalf("run error = %v, want an invariant violation", err)
	}
}

// The sim.stall chaos point must trip the genuine watchdog path: the run
// fails with a *StallError carrying the standard diagnostic dump.
func TestChaosStallTripsWatchdog(t *testing.T) {
	sys := MustNew(tinyConfig())
	sys.SetStallLimit(10_000)
	plane := faultinject.New(faultinject.MustParse("sim.stall:1@2"))
	sys.SetChaos(plane, "test/pom/none")
	_, err := sys.Run()
	if err == nil {
		t.Fatal("injected stall did not fail the run")
	}
	stall, ok := err.(*StallError)
	if !ok {
		t.Fatalf("error = %T %v, want *StallError", err, err)
	}
	if stall.Dump == "" {
		t.Error("stall error carries no diagnostic dump")
	}
	if plane.Fired() != 1 {
		t.Errorf("stall point fired %d times", plane.Fired())
	}
}

// With the watchdog disarmed the stall point is a no-op: chaos must never
// introduce failure modes the configuration cannot hit.
func TestChaosStallNeedsArmedWatchdog(t *testing.T) {
	sys := MustNew(tinyConfig())
	plane := faultinject.New(faultinject.MustParse("sim.stall:1@1"))
	sys.SetChaos(plane, "test/pom/none")
	if _, err := sys.Run(); err != nil {
		t.Fatalf("unarmed watchdog: %v", err)
	}
}
