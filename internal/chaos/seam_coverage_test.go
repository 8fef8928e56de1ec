//go:build chaossweep

package chaos

import (
	"context"
	"testing"
)

// TestSeamCoverage sweeps enough seeds that every injection point must
// fire at least once — the acceptance bar the nightly CI job holds at
// 1000 seeds.
func TestSeamCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed sweep")
	}
	rep, err := Sweep(context.Background(), Options{Seed: 1, Runs: 100})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, pt := range []string{
		"checkpoint.write", "checkpoint.fsync", "store.torn",
		"job.panic", "job.transient", "worker.stall",
		"sim.stall", "sim.corrupt",
	} {
		if rep.Coverage[pt] == 0 {
			t.Errorf("seam %s never fired in 100 seeds\ncoverage:\n%s", pt, rep.CoverageString())
		}
	}
	// The failure classes the seams feed must all have appeared too.
	for _, class := range []string{"panic", "store", "stall", "timeout", "invariant"} {
		if rep.Classes[class] == 0 {
			t.Errorf("class %s never produced: %+v", class, rep.Classes)
		}
	}
}
