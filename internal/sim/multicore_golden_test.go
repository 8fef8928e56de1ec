package sim

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
)

// multiCoreShapes is the schedule matrix the multi-core golden pins: 4 and
// 8 cores under POM with CSALT-CD, the conventional walker, a shared L2
// TLB and 4 contexts per core. With more than two cores the run loop's
// min-clock-first pick has a runner-up other than "the other core", ties
// among several equal clocks (every core starts at cycle 0) and cores that
// retire while others still run, none of which a 2-core run reaches.
func multiCoreShapes() []goldenShape {
	var out []goldenShape
	for _, cores := range []int{4, 8} {
		base := tinyConfig()
		base.Cores = cores
		shapes := []struct {
			name   string
			mutate func(*Config)
		}{
			{"pom_cd", func(c *Config) { c.Org, c.Scheme = OrgPOM, core.CriticalityDynamic }},
			{"conventional", func(c *Config) { c.Org, c.Scheme = OrgConventional, core.None }},
			{"shared_l2tlb", func(c *Config) { c.Org, c.Scheme, c.SharedL2TLB = OrgPOM, core.CriticalityDynamic, true }},
			{"ctx4", func(c *Config) { c.Org, c.Scheme, c.ContextsPerCore = OrgPOM, core.CriticalityDynamic, 4 }},
		}
		for _, sh := range shapes {
			cfg := base
			sh.mutate(&cfg)
			out = append(out, goldenShape{fmt.Sprintf("cores%d/%s", cores, sh.name), cfg})
		}
	}
	return out
}

// TestMultiCoreScheduleGolden pins the Results of 4- and 8-core runs on
// both engines. Every other simulation in the package runs one or two
// cores, so this is what holds the interleaving of many cores — which core
// steps next, how ties between equal clocks break, when a batch on one
// core ends and when the warm-up reset fires — fixed across changes to the
// run loop.
//
//	go test ./internal/sim -run TestMultiCoreScheduleGolden -update
func TestMultiCoreScheduleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("16 multi-core simulations")
	}
	checkGolden(t, filepath.Join("testdata", "multicore.golden"), goldenDigests(t, multiCoreShapes()))
}
