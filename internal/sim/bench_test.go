package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/workload"
)

// BenchmarkEpochBatch measures the steady-state cost of one simulation
// step — generator, translation, data path, MLP bookkeeping — through the
// probe's configuration (2 cores, GUPS/GUPS, CSALT-CD; see probeConfig),
// driven by the same min-cycle-first schedule as the run loop's batched
// inner loop. The fast/reference pair is the whole-engine speedup; the
// per-subsystem layout deltas live in the tlb and cache packages.
// `make bench` runs it once; perfbench measures the whole simulator.
func benchEpochBatch(b *testing.B, engine string) {
	cfg := DefaultConfig()
	cfg.Engine = engine
	cfg.Cores = 2
	cfg.Scale = 0.1
	cfg.Scheme = core.CriticalityDynamic
	cfg.Mix = workload.Mix{ID: "bench", VM1: workload.GUPS, VM2: workload.GUPS}
	// Step is driven directly; run-control limits are not consulted.
	sys := MustNew(cfg)
	cores := sys.Cores()
	for i := 0; i < 20_000; i++ {
		for _, c := range cores {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatalf("warm step: ok=%v err=%v", ok, err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cores[0]
		if cores[1].Cycle() < c.Cycle() {
			c = cores[1]
		}
		if ok, err := c.Step(); err != nil || !ok {
			b.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkEpochBatch(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchEpochBatch(b, EngineFast) })
	b.Run("reference", func(b *testing.B) { benchEpochBatch(b, EngineReference) })
}

// BenchmarkRunLoop measures System.Run end to end on an 8-core
// streamcluster machine (POM-TLB, CSALT-D), the benchmark's stream_pom_d
// shape at a test-sized footprint: few TLB misses, so the run loop's
// min-clock-first pick over eight cores weighs next to the generator. Each
// iteration builds a fresh system outside the timer and runs it to
// completion; ns/ref is the timed host time per retired reference, warm-up
// included. BenchmarkEpochBatch never enters the run loop. `make bench`
// runs it once; perfbench measures the whole simulator.
func BenchmarkRunLoop(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Scale = 0.05
	cfg.MaxRefsPerCore = 20_000
	cfg.WarmupRefs = 4_000
	cfg.Org = OrgPOM
	cfg.Scheme = core.Dynamic
	cfg.Mix = workload.Mix{ID: "bench", VM1: workload.StreamCluster, VM2: workload.StreamCluster}
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		sys := MustNew(cfg)
		b.StartTimer()
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
	refs := uint64(b.N) * uint64(cfg.Cores) * cfg.MaxRefsPerCore
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
}

// BenchmarkNew measures sim.New on two of perfbench's configurations at
// experiment.Small's machine shape (8 cores, two contexts, scale 0.25,
// seed 3): gups_pom_cd (POM-TLB, CSALT-CD) and ccomp_conv (conventional
// walker). Set-up is mostly prewarm, which maps every footprint page and
// fills its POM-TLB entry, so ns/page is set-up time per prewarmed
// footprint page, the quantity perfbench traces as setup.ns_per_page.
// `make bench` runs it once; perfbench's setup_s times two builds side
// by side.
func BenchmarkNew(b *testing.B) {
	for _, bc := range []struct {
		name   string
		mix    workload.Mix
		org    TranslationOrg
		scheme core.Scheme
	}{
		{"gups_pom_cd", workload.Mix{ID: "gups", VM1: workload.GUPS, VM2: workload.GUPS}, OrgPOM, core.CriticalityDynamic},
		{"ccomp_conv", workload.Mix{ID: "ccomp", VM1: workload.CComp, VM2: workload.CComp}, OrgConventional, core.None},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Cores, cfg.Scale, cfg.Seed = 8, 0.25, 3
			cfg.Mix, cfg.Org, cfg.Scheme = bc.mix, bc.org, bc.scheme
			pages := footprintPages(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
		})
	}
}
