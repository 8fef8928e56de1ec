package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/obs"
)

// update rewrites the golden files (trace snapshot, NoPrewarm digests)
// instead of comparing against them:
//
//	go test ./internal/sim -run 'TestGoldenTrace|TestNoPrewarmGolden' -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// observedConfig is the tiny fig1-style configuration the trace tests run:
// POM-TLB organisation with CSALT-D so both context switches and
// repartition decisions occur within a 20k-reference run.
func observedConfig() Config {
	cfg := tinyConfig()
	cfg.Org = OrgPOM
	cfg.Scheme = core.Dynamic
	return cfg
}

// runObserved builds the observed config, attaches the given observer and
// runs it to completion.
func runObservedTiny(t *testing.T, o *obs.Observer) *Results {
	t.Helper()
	sys, err := New(observedConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachObserver(o)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGoldenTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace needs a full tiny simulation")
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.FormatJSONL, obs.AllEvents)
	runObservedTiny(t, &obs.Observer{Tracer: tr})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Count(obs.EvContextSwitch) < 1 {
		t.Error("trace recorded no context switches")
	}
	if tr.Count(obs.EvRepartition) < 1 {
		t.Error("trace recorded no repartition decisions")
	}

	golden := filepath.Join("testdata", "trace_tiny.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d events)", golden, tr.Events())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace drifted from golden snapshot (re-run with -update if intended): got %d bytes, want %d",
			buf.Len(), len(want))
	}
}

func TestSamplerRecordsPartitionMovement(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a full tiny simulation")
	}
	s := obs.NewSampler(SamplerColumns(), obs.DefaultSamplerCapacity)
	runObservedTiny(t, &obs.Observer{Sampler: s})
	if s.Len() < 2 {
		t.Fatalf("sampler captured %d rows, want >= 2", s.Len())
	}
	// At tiny scale the L3 split can sit at its floor all run, but CSALT-D
	// must move at least one partition column over the epochs.
	rows := s.Rows()
	varied := false
	for _, name := range []string{"l2_data_ways", "l3_data_ways", "l3_tlb_way_frac"} {
		col := s.Column(name)
		if col < 0 {
			t.Fatalf("sampler has no %s column", name)
		}
		for _, row := range rows[1:] {
			if row[col] != rows[0][col] {
				varied = true
				break
			}
		}
	}
	if !varied {
		t.Errorf("no partition column changed across %d samples; CSALT-D should repartition", len(rows))
	}
	if ic := s.Column("instructions"); ic >= 0 {
		for i, row := range rows {
			if row[ic] <= 0 {
				t.Errorf("sample %d has non-positive instruction delta %v", i, row[ic])
			}
		}
	}
}

func TestRegistryCoversComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a full tiny simulation")
	}
	r := obs.NewRegistry()
	runObservedTiny(t, &obs.Observer{Registry: r})
	snap := r.Snapshot()
	for _, group := range []string{
		"core.0", "core.1",
		"tlb.l1tlb0", "tlb.l2tlb0", "tlb.pom",
		"cache.l1d0", "cache.l2d0", "cache.l3",
		"csalt.l3", "dram.ddr4-2133", "dram.die-stacked",
		"walker.0", "sim",
	} {
		metrics, ok := snap[group]
		if !ok {
			t.Errorf("registry missing group %q", group)
			continue
		}
		if len(metrics) == 0 {
			t.Errorf("group %q has no metrics", group)
		}
	}
	if v, ok := snap["csalt.l3"]["epochs"].(float64); !ok || v < 1 {
		t.Errorf("csalt.l3 epochs = %v, want >= 1", snap["csalt.l3"]["epochs"])
	}
}

// TestObserverPassive pins the core guarantee of the observability layer:
// attaching a full observer must not change simulation results at all.
func TestObserverPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("needs two full tiny simulations")
	}
	sys, err := New(observedConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	observed := runObservedTiny(t, &obs.Observer{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(&buf, obs.FormatJSONL, obs.AllEvents),
		Sampler:  obs.NewSampler(SamplerColumns(), obs.DefaultSamplerCapacity),
	})
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observed run diverged from unobserved run:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

func TestAttachObserverDisabledIsNoop(t *testing.T) {
	sys, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachObserver(nil)
	sys.AttachObserver(&obs.Observer{})
	if sys.obs != nil {
		t.Fatal("disabled observer was attached")
	}
}
