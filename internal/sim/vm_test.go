package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/workload"
)

// TestEnsureMappedReturnsInstalledMapping: the mapping a demand fault
// returns — which prewarm installs into the POM-TLB and TSBs without
// walking — is exactly what a walk of the finished tables resolves, for
// every VM shape: native 4K, native 2M, virtualized over 2M and 4K EPT.
func TestEnsureMappedReturnsInstalledMapping(t *testing.T) {
	shapes := []struct {
		name                     string
		virtualized, huge, ept4K bool
	}{
		{"native", false, false, false},
		{"native_huge", false, true, false},
		{"virt_ept2m", true, false, false},
		{"virt_ept4k", true, false, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Virtualized, cfg.HugePages, cfg.EPT4K = sh.virtualized, sh.huge, sh.ept4K
			cfg.NoPrewarm = true
			sys := MustNew(cfg)
			vm := sys.vms[0]
			var fresh int
			for i := 0; i < 3000; i++ {
				// 2048 pages over four 2 MB regions, each touched at an
				// offset; the last 952 touches repeat earlier pages.
				v := vaBase(0) + mem.VAddr((i*7919%2048)*mem.PageSize4K+i%mem.PageSize4K)
				pm, created, err := vm.ensureMapped(v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := vm.resolve(v)
				if err != nil {
					t.Fatal(err)
				}
				if !created {
					if pm != (pageMapping{}) {
						t.Fatalf("%#x: already-mapped page returned mapping %+v", v, pm)
					}
					continue
				}
				fresh++
				if pm != want {
					t.Fatalf("%#x: installed mapping %+v, tables resolve %+v", v, pm, want)
				}
				_, pa, _, err := sys.Mem().Translate(0, v, vm.asid, 0)
				if err != nil {
					t.Fatal(err)
				}
				if pa&^(mem.PageSize4K-1) != pm.hpa {
					t.Fatalf("%#x: translates to %#x, mapping says frame %#x", v, pa, pm.hpa)
				}
			}
			if fresh == 0 {
				t.Fatal("no page was freshly mapped")
			}
		})
	}
}

// TestSourceParametersPinned pins the per-context generator parameters
// sim.New gives core c's source for the VM in context slot vi: base
// address 0x10_0000_0000 + c<<36 and seed Seed + vi·1_000_003 + c·7919.
// perfbench's generators (perfbench/traced.go) rebuild the same sources
// from a copy of these two formulas to count and time prewarmed pages, so
// a change to newSource or vaBase that fails this test must change that
// copy in the same commit.
func TestSourceParametersPinned(t *testing.T) {
	const records = 64
	for _, c := range []struct {
		seed  uint64
		vi, c int
	}{
		{1, 0, 0},
		{3, 1, 5},
		{7, 0, 7},
		{11, 3, 2},
	} {
		cfg := tinyConfig()
		cfg.Seed = c.seed
		bench := cfg.Mix.VM1
		if c.vi%2 == 1 {
			bench = cfg.Mix.VM2
		}
		vm := &vmState{asid: mem.ASID(c.vi + 1), bench: bench}
		got, err := newSource(cfg, vm, c.c, c.vi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.New(bench, workload.Params{
			ASID:  mem.ASID(c.vi + 1),
			Base:  mem.VAddr(0x10_0000_0000 + uint64(c.c)<<36),
			Seed:  c.seed + uint64(c.vi)*1_000_003 + uint64(c.c)*7919,
			Scale: cfg.Scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			g, gok := got.Next()
			w, wok := want.Next()
			if g != w || gok != wok {
				t.Fatalf("seed %d, slot %d, core %d: record %d is %+v,%v; the literal formulas give %+v,%v",
					c.seed, c.vi, c.c, i, g, gok, w, wok)
			}
		}
	}
}
