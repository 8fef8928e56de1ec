package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4), the steadiness check's rule.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 2, 7}, 1.625, 5.5, 8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.m || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median/quartiles reordered their input: %v", in)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"refs_per_s", "prof.tlb_frac", "sweep-tiny", "3d", "a"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "ns/op", "é", long} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestReportedNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		if !validName(s.name) || seen[s.name] {
			t.Errorf("metric %q invalid or repeated", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("workload %q invalid or repeated", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json, which declares the
// benchmark's workloads and metrics, in step with the tables the program
// reports from.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, tc := range []struct {
		got   []struct{ Name, Unit, Better string }
		specs []spec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(tc.got), len(tc.specs))
		}
		for i, s := range tc.specs {
			if g := tc.got[i]; g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %s [%s] %s", i, g, s.name, s.unit, s.better)
			}
		}
	}
}

func TestCompareRefusesFingerprintMismatch(t *testing.T) {
	fp := Fingerprint{CPUModel: "cpu A", NumCPU: 2, GOMAXPROCS: 2, GOAMD64: "v1", GoVersion: "go1.24.0"}
	base := Record{Workload: "gups_pom_cd", Fingerprint: fp, Commit: "a",
		Result: Result{Metrics: map[string]Metric{"refs_per_s": {Value: 100, Unit: "1/s"}}}}
	head := base
	head.Commit = "b"
	head.Result = Result{Metrics: map[string]Metric{"refs_per_s": {Value: 110, Unit: "1/s"}}}

	lines, err := compareRecords(base, head)
	if err != nil || len(lines) != 1 {
		t.Fatalf("same host: got %v, %v", lines, err)
	}

	for _, mutate := range []func(*Fingerprint){
		func(f *Fingerprint) { f.CPUModel = "cpu B" },
		func(f *Fingerprint) { f.NumCPU = 4 },
		func(f *Fingerprint) { f.GOMAXPROCS = 1 },
		func(f *Fingerprint) { f.GOAMD64 = "v3" },
		func(f *Fingerprint) { f.GoVersion = "go1.23.0" },
	} {
		other := head
		mutate(&other.Fingerprint)
		if _, err := compareRecords(base, other); !errors.Is(err, errFingerprint) {
			t.Errorf("fingerprint %+v vs %+v: err = %v, want refusal", base.Fingerprint, other.Fingerprint, err)
		}
	}

	other := head
	other.Workload = "ccomp_conv"
	if _, err := compareRecords(base, other); err == nil {
		t.Error("records of different workloads compared")
	}
}
