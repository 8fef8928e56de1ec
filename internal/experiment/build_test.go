package experiment

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/workload"
)

// TestNewEveryConfiguration builds, without running, every mix under the
// conventional organisation and under POM-TLB with CSALT-CD, plus one TSB,
// one native, one native huge-page, one 5-level and one 2 MB-EPT
// configuration, at tiny and small scale. Between them these build EPTs
// whose 4 KB leaves are dense, EPTs whose data sits in hashed 2 MB leaves,
// and no EPT at all, each prewarmed over its whole footprint. The small
// half takes a few seconds and is skipped under -short. Paper scale is
// left out: ccomp's footprint does not fit a VM's 2 GB guest-physical
// data space there (ROADMAP item 1).
func TestNewEveryConfiguration(t *testing.T) {
	for _, s := range []Scale{Tiny, Small} {
		t.Run(s.Name, func(t *testing.T) {
			if s.Name != Tiny.Name && testing.Short() {
				t.Skip("small-scale builds skipped under -short")
			}
			cases := map[string]sim.Config{}
			for _, m := range workload.Mixes() {
				base := s.BaseConfig()
				base.Mix = m
				cases[m.ID+"/conventional"] = conventional(base)
				cases[m.ID+"/csalt-cd"] = csaltCD(base)
			}
			extra := func(name string, mutate func(*sim.Config)) {
				cfg := csaltCD(s.BaseConfig())
				cfg.Mix = workload.Mix{ID: "can_ccomp", VM1: workload.Canneal, VM2: workload.CComp}
				mutate(&cfg)
				cases[name] = cfg
			}
			extra("tsb", func(c *sim.Config) { c.Org, c.Scheme = sim.OrgTSB, core.None })
			extra("native", func(c *sim.Config) { c.Virtualized = false })
			extra("native-huge", func(c *sim.Config) { c.Virtualized, c.HugePages = false, true })
			extra("5-level", func(c *sim.Config) { c.PageTableLevels = 5 })
			extra("ept-2m", func(c *sim.Config) { c.EPT4K = false })
			for name, cfg := range cases {
				if _, err := sim.New(cfg); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}
