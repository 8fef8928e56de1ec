package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
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
