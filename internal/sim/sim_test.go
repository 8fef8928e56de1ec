package sim

import (
	"math"
	"testing"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/workload"
)

// tinyConfig returns a fast two-core configuration for unit tests.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.05
	cfg.MaxRefsPerCore = 20_000
	cfg.WarmupRefs = 4_000
	cfg.SwitchIntervalCycles = 20_000
	cfg.EpochLen = 2_000
	cfg.OccupancyScanEvery = 5_000
	cfg.Mix = workload.Mix{ID: "test", VM1: workload.GUPS, VM2: workload.StreamCluster}
	return cfg
}

func runTiny(t *testing.T, mutate func(*Config)) *Results {
	t.Helper()
	cfg := tinyConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ContextsPerCore = 0 },
		func(c *Config) { c.Mix.VM1 = "" },
		func(c *Config) { c.Mix.VM2 = ""; c.ContextsPerCore = 2 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.MaxRefsPerCore = 0 },
		func(c *Config) { c.WarmupRefs = c.MaxRefsPerCore },
		func(c *Config) { c.PageTableLevels = 3 },
		func(c *Config) { c.POMSizeMB = 0; c.Org = OrgPOM },
	}
	for i, mut := range bad {
		cfg := tinyConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := tinyConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestOrgString(t *testing.T) {
	if OrgConventional.String() != "conventional" || OrgPOM.String() != "pom" || OrgTSB.String() != "tsb" {
		t.Error("org names wrong")
	}
}

func TestRunProducesSaneResults(t *testing.T) {
	res := runTiny(t, nil)
	if len(res.PerCoreIPC) != 2 {
		t.Fatalf("per-core IPC count = %d", len(res.PerCoreIPC))
	}
	for i, ipc := range res.PerCoreIPC {
		if ipc <= 0 || ipc > 4 {
			t.Errorf("core %d IPC = %v, implausible", i, ipc)
		}
	}
	if res.IPCGeomean <= 0 {
		t.Error("geomean IPC not positive")
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Error("no measured work")
	}
	if res.L2TLBMisses == 0 {
		t.Error("gups produced no L2 TLB misses")
	}
	if res.TouchedPages == 0 {
		t.Error("no pages demand-mapped")
	}
	if res.ContextSwitches == 0 {
		t.Error("no context switches with 2 contexts")
	}
	if res.OrgName != "pom" {
		t.Errorf("org name = %q", res.OrgName)
	}
}

func TestDeterminism(t *testing.T) {
	a := runTiny(t, nil)
	b := runTiny(t, nil)
	if a.Instructions != b.Instructions || a.Cycles != b.Cycles ||
		a.L2TLBMisses != b.L2TLBMisses || a.PageWalks != b.PageWalks {
		t.Errorf("two identical runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerCoreIPC {
		if a.PerCoreIPC[i] != b.PerCoreIPC[i] {
			t.Errorf("core %d IPC differs", i)
		}
	}
}

func TestPOMEliminatesWalks(t *testing.T) {
	// Use a footprint larger than the L2 TLB's reach so pages are
	// re-missed (the tiny default fits entirely in 1536 entries and every
	// POM lookup would be a compulsory miss).
	bigger := func(c *Config) {
		c.Scale = 0.15
		c.MaxRefsPerCore = 60_000
		c.WarmupRefs = 10_000
		// A homogeneous TLB-heavy mix: in a timed mix the high-IPC
		// benchmark dominates retired references, diluting the signal.
		c.Mix = workload.Mix{ID: "gups", VM1: workload.GUPS, VM2: workload.GUPS}
	}
	conv := runTiny(t, func(c *Config) { bigger(c); c.Org = OrgConventional })
	pom := runTiny(t, bigger)
	// Conventional: every L2 TLB miss walks.
	if conv.PageWalks != conv.L2TLBMisses {
		t.Errorf("conventional walks (%d) != L2 TLB misses (%d)", conv.PageWalks, conv.L2TLBMisses)
	}
	if conv.WalksEliminated != 0 {
		t.Errorf("conventional eliminated %v of walks", conv.WalksEliminated)
	}
	// POM eliminates the bulk of them (paper: ~97% at full scale).
	if pom.WalksEliminated < 0.5 {
		t.Errorf("POM eliminated only %.2f of walks", pom.WalksEliminated)
	}
	if pom.POMHitRate <= 0 {
		t.Error("POM hit rate zero")
	}
}

func TestVirtualizedWalksCostMore(t *testing.T) {
	virt := runTiny(t, func(c *Config) { c.Org = OrgConventional })
	nat := runTiny(t, func(c *Config) { c.Org = OrgConventional; c.Virtualized = false })
	if virt.WalkCyclesPerWalk <= nat.WalkCyclesPerWalk {
		t.Errorf("2-D walk (%v cycles) not costlier than 1-D (%v)",
			virt.WalkCyclesPerWalk, nat.WalkCyclesPerWalk)
	}
}

func TestCSALTPartitionsMove(t *testing.T) {
	res := runTiny(t, func(c *Config) {
		c.Scheme = core.CriticalityDynamic
		c.RecordHistory = true
	})
	if len(res.PartitionHistoryL3) == 0 {
		t.Fatal("no L3 partition history recorded")
	}
	if len(res.PartitionHistoryL2) == 0 {
		t.Fatal("no L2 partition history recorded")
	}
	for _, snap := range res.PartitionHistoryL3 {
		if snap.DataWays < 1 || snap.DataWays > 15 {
			t.Errorf("L3 partition %d out of range", snap.DataWays)
		}
		if snap.TLBFraction < 0 || snap.TLBFraction > 1 {
			t.Errorf("TLB fraction %v out of range", snap.TLBFraction)
		}
	}
}

func TestSchemesShareWorkload(t *testing.T) {
	// Schemes see nearly identical work: each core retires the same number
	// of memory references, though cycle-based context switching lets the
	// per-context mix (and so the instruction total) drift slightly with
	// timing — as it does with the paper's timed-trace playback.
	base := runTiny(t, nil)
	csalt := runTiny(t, func(c *Config) { c.Scheme = core.Dynamic })
	dip := runTiny(t, func(c *Config) { c.DIP = true })
	for name, r := range map[string]*Results{"csalt": csalt, "dip": dip} {
		ratio := float64(r.Instructions) / float64(base.Instructions)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s instruction count diverged: %d vs base %d", name, r.Instructions, base.Instructions)
		}
	}
	if dip.SchemeName != "dip" {
		t.Errorf("DIP scheme name = %q", dip.SchemeName)
	}
}

func TestTSBOrgRuns(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Org = OrgTSB })
	if res.L2TLBMisses == 0 {
		t.Fatal("no TLB misses under TSB")
	}
	// TSB still resolves translations; walks only on TSB misses.
	if res.PageWalks > res.L2TLBMisses {
		t.Error("more walks than TLB misses")
	}
	if res.OrgName != "tsb" {
		t.Error("org name wrong")
	}
}

func TestNativeMode(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Virtualized = false })
	if res.L2TLBMisses == 0 {
		t.Error("native run produced no TLB misses")
	}
	if res.IPCGeomean <= 0 {
		t.Error("native IPC not positive")
	}
}

func TestHugePagesReduceTLBMisses(t *testing.T) {
	small := runTiny(t, func(c *Config) { c.Virtualized = false; c.Org = OrgConventional })
	huge := runTiny(t, func(c *Config) {
		c.Virtualized = false
		c.Org = OrgConventional
		c.HugePages = true
	})
	if huge.L2TLBMPKI >= small.L2TLBMPKI {
		t.Errorf("huge pages did not reduce TLB MPKI: %v vs %v", huge.L2TLBMPKI, small.L2TLBMPKI)
	}
}

func TestSingleContextNoSwitches(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.ContextsPerCore = 1 })
	if res.ContextSwitches != 0 {
		t.Errorf("1-context run switched %d times", res.ContextSwitches)
	}
}

func TestContextSwitchRaisesTLBMPKI(t *testing.T) {
	// The paper's Figure 1: adding a second context raises L2 TLB MPKI.
	one := runTiny(t, func(c *Config) {
		c.ContextsPerCore = 1
		c.Mix = workload.Mix{ID: "c", VM1: workload.Canneal, VM2: workload.Canneal}
	})
	two := runTiny(t, func(c *Config) {
		c.Mix = workload.Mix{ID: "c", VM1: workload.Canneal, VM2: workload.Canneal}
	})
	if two.L2TLBMPKI <= one.L2TLBMPKI {
		t.Errorf("context switching did not raise TLB MPKI: %v vs %v",
			two.L2TLBMPKI, one.L2TLBMPKI)
	}
}

func TestTranslationsAreConsistent(t *testing.T) {
	// White-box: after a run, spot-check that the memory system's
	// translation of an address agrees with the architectural page tables.
	cfg := tinyConfig()
	sys := MustNew(cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	m := sys.Mem()
	vm := sys.vms[0]
	v := vaBase(0) + 0x1234
	if _, _, err := vm.ensureMapped(v); err != nil {
		t.Fatal(err)
	}
	_, pa, _, err := m.Translate(0, v, vm.asid, 0)
	if err != nil {
		t.Fatal(err)
	}
	gpa, ok := vm.space.Guest.Translate(v)
	if !ok {
		t.Fatal("guest table lost the mapping")
	}
	want, ok := vm.space.Host.Translate(mem.VAddr(gpa))
	if !ok {
		t.Fatal("host table lost the mapping")
	}
	if pa != want {
		t.Errorf("Translate = %#x, architectural = %#x", pa, want)
	}
}

func TestOccupancyMeasured(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.OccupancyScanEvery = 2_000 })
	if res.TLBOccupancyL2 <= 0 || res.TLBOccupancyL2 > 1 {
		t.Errorf("L2 occupancy = %v", res.TLBOccupancyL2)
	}
	if res.TLBOccupancyL3 <= 0 || res.TLBOccupancyL3 > 1 {
		t.Errorf("L3 occupancy = %v", res.TLBOccupancyL3)
	}
}

func TestInlineProfilerRuns(t *testing.T) {
	res := runTiny(t, func(c *Config) {
		c.Scheme = core.Dynamic
		c.InlineProfiler = true
		c.Policy = cache.PolicyBTPLRU
	})
	if res.IPCGeomean <= 0 {
		t.Error("inline-profiler run failed")
	}
}

func TestGeomeanMatchesPerCore(t *testing.T) {
	res := runTiny(t, nil)
	prod := 1.0
	for _, ipc := range res.PerCoreIPC {
		prod *= ipc
	}
	want := math.Pow(prod, 1/float64(len(res.PerCoreIPC)))
	if math.Abs(res.IPCGeomean-want) > 1e-9 {
		t.Errorf("geomean = %v, recomputed = %v", res.IPCGeomean, want)
	}
}
