package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/workload"
)

// TestRegistryGolden pins a whole run's metrics registry — every group,
// metric name and value, including the introspect.* per-cause families —
// in the JSON form `csaltsim -metrics-out` writes. The run is a
// micro-scale single-core GUPS pair on POM-TLB (the experiment package's
// micro scale); the observer carries a registry and an epoch
// sampler, and the attribution plane attaches after it, as an observed
// csaltsim run wires them.
//
//	go test ./internal/sim -run TestRegistryGolden -update
func TestRegistryGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Scale = 0.05
	cfg.MaxRefsPerCore = 6_000
	cfg.WarmupRefs = 1_000
	cfg.SwitchIntervalCycles = 20_000
	cfg.EpochLen = 1_500
	cfg.OccupancyScanEvery = 2_000
	cfg.Mix = workload.Mix{ID: "golden", VM1: workload.GUPS, VM2: workload.GUPS}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.Observer{
		Registry: obs.NewRegistry(),
		Sampler:  obs.NewSampler(SamplerColumns(), 0),
	}
	sys.AttachObserver(o)
	sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Registry.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, cause := range []string{"compulsory", "switch_induced", "conflict", "capacity"} {
		if want := "[cause=" + cause + "]"; !strings.Contains(got, want) {
			t.Errorf("registry has no %s metric", want)
		}
	}

	golden := filepath.Join("testdata", "registry.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("registry deviates from %s at line %d:\n  got:  %q\n  want: %q\n(re-run with -update if intended)",
				golden, i+1, g, w)
		}
	}
}

// probeConfig is the fixed throughput-probe system: 2 cores, GUPS on both
// VMs, CSALT-CD at scale 0.1, with a fifth of each core's references as
// warm-up. It exercises the whole model (TLBs, caches, partitioning
// controller, DRAM, walkers) in sub-second runs; the probe golden pins its
// registry and the overhead gates price their hooks against its wall time.
func probeConfig(refsPerCore uint64) Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.1
	cfg.MaxRefsPerCore = refsPerCore
	cfg.WarmupRefs = refsPerCore / 5
	cfg.Scheme = core.CriticalityDynamic
	cfg.Mix = workload.Mix{ID: "probe", VM1: workload.GUPS, VM2: workload.GUPS}
	return cfg
}

// TestProbeRegistryGolden pins the sha256 of the probe's registry snapshot
// (json.Marshal of Registry.Snapshot, 120k references per core) on both
// engines, through the equivalence suite's engineRun (invariant checks
// armed; they are passive). Unlike TestRegistryGolden it runs the
// partitioning controller on two cores with no attribution plane
// attached, so it is the digest that says a host-speed change left the
// partitioned model untouched.
//
//	go test ./internal/sim -run TestProbeRegistryGolden -update
func TestProbeRegistryGolden(t *testing.T) {
	var got strings.Builder
	for _, engine := range []string{EngineFast, EngineReference} {
		digest, _ := engineRun(t, probeConfig(120_000), engine)
		fmt.Fprintf(&got, "probe/%s %s\n", engine, digest)
	}
	checkGolden(t, filepath.Join("testdata", "probe_registry.golden"), got.String())
}
