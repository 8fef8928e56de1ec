package sim

import (
	"strings"
	"testing"

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

// A corruption must surface as a failed run, through the always-on
// end-of-run conservation pass. With no warm-up, no stats reset can wipe
// a counter bumped before Run.
func TestCorruptCounterFailsRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupRefs = 0
	sys := MustNew(cfg)
	sys.CorruptForTest("tlb-counter")
	_, err := sys.Run()
	v, ok := invariant.IsViolation(err)
	if !ok {
		t.Fatalf("run error = %v, want an invariant violation", err)
	}
	if !strings.HasPrefix(v.Check, "tlb.") || !strings.HasSuffix(v.Check, ".conservation") {
		t.Errorf("violation names %q, want a tlb conservation law", v.Check)
	}
}
