package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/trace"
)

// writeTrace writes recs as a binary trace file.
func writeTrace(t *testing.T, path string, recs ...trace.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestObservedRunPanicFailsMix: a simulator panic in an observed run fails
// that mix with an *experiment.PanicError instead of killing the process,
// and the metrics artifact is still written. The panic comes from a
// recorded trace whose address lies beyond what the flat TLB layouts can
// pack, replayed without prewarm so the first translation refuses it.
func TestObservedRunPanicFailsMix(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"vm1_core0.trace", "vm2_core0.trace"} {
		writeTrace(t, filepath.Join(dir, name), trace.Record{Addr: 1 << 60})
	}
	cfg := csalt.DefaultConfig()
	cfg.Cores = 1
	cfg.Scale = 0.05
	cfg.MaxRefsPerCore = 1_000
	cfg.WarmupRefs = 100
	cfg.Mix = csalt.HomogeneousMix(csalt.GUPS)
	cfg.TraceDir = dir
	cfg.NoPrewarm = true

	metrics := filepath.Join(dir, "metrics.json")
	f := obsFlags{metricsOut: metrics, traceFormat: "jsonl", traceEvents: "all"}
	results, err := runObserved(context.Background(), []csalt.Config{cfg}, &f, 0, false)
	var pe *experiment.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("observed run error = %v, want an *experiment.PanicError", err)
	}
	if !strings.Contains(err.Error(), "mix gups: simulation panicked: tlb: ") {
		t.Errorf("error does not name the mix and the panic: %v", err)
	}
	if results[0] != nil {
		t.Errorf("panicked mix produced results: %+v", results[0])
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics artifact not flushed: %v", err)
	}
	var groups map[string]map[string]any
	if err := json.Unmarshal(b, &groups); err != nil || len(groups) == 0 {
		t.Errorf("metrics artifact is not a non-empty group map (%v):\n%s", err, b)
	}
}
