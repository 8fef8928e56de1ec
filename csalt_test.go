package csalt

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/snapshot"
)

// facadeConfig returns a seconds-fast configuration for facade tests.
func facadeConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.05
	cfg.MaxRefsPerCore = 20_000
	cfg.WarmupRefs = 4_000
	cfg.EpochLen = 4_000
	cfg.SwitchIntervalCycles = 40_000
	cfg.Mix = HomogeneousMix(GUPS)
	return cfg
}

func TestRunFacade(t *testing.T) {
	res, err := Run(facadeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCGeomean <= 0 {
		t.Error("IPC not positive")
	}
	if res.OrgName != "pom" || res.SchemeName != "none" {
		t.Errorf("names = %q/%q", res.OrgName, res.SchemeName)
	}
}

func TestRunFacadeRejectsBadConfig(t *testing.T) {
	cfg := facadeConfig()
	cfg.Cores = 0
	if _, err := Run(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestRunManyContext runs two valid configurations around one that fails
// Validate. The first one's snapshot slot holds garbage bytes and the
// second one's a well-formed snapshot keyed to another configuration. The
// valid slots must equal Run's Results, the invalid slot stays nil with
// its index named in the joined error, and both damaged slots are
// quarantined without touching the results they would have resumed.
func TestRunManyContext(t *testing.T) {
	a := facadeConfig()
	bad := facadeConfig()
	bad.Cores = 0
	b := facadeConfig()
	b.Scheme = SchemeCSALTCD
	dir := t.TempDir()
	keyA, err := checkpoint.KeyOf(a)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := checkpoint.KeyOf(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot.PathFor(dir, keyA), []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := snapshot.Meta{Schema: snapshot.Schema, Version: snapshot.Version, Key: keyA}
	if err := snapshot.Write(snapshot.PathFor(dir, keyB), foreign, &snapshot.State{}, nil); err != nil {
		t.Fatal(err)
	}

	cfgs := []Config{a, bad, b}
	got, err := RunManyContext(context.Background(), cfgs, ManyOpts{Parallel: 2, SnapshotDir: dir})
	if err == nil || !strings.Contains(err.Error(), "configuration 1 ") {
		t.Fatalf("joined error does not name configuration 1: %v", err)
	}
	if strings.Contains(err.Error(), "configuration 0 ") || strings.Contains(err.Error(), "configuration 2 ") {
		t.Errorf("valid configurations reported as failed: %v", err)
	}
	if got[1] != nil {
		t.Errorf("invalid configuration produced results: %+v", got[1])
	}
	for _, i := range []int{0, 2} {
		want, err := Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got[i])
		if string(gj) != string(wj) {
			t.Errorf("configuration %d: RunManyContext results differ from Run", i)
		}
	}
	info, err := snapshot.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Quarantined != 2 || info.Snapshots != 0 {
		t.Errorf("snapshot dir: %d quarantined, %d left; want both damaged slots quarantined and nothing left",
			info.Quarantined, info.Snapshots)
	}
}

func TestSchemesExposed(t *testing.T) {
	for _, scheme := range []struct {
		s    interface{ String() string }
		want string
	}{
		{SchemeNone, "none"},
		{SchemeStatic, "csalt-static"},
		{SchemeCSALTD, "csalt-d"},
		{SchemeCSALTCD, "csalt-cd"},
	} {
		if scheme.s.String() != scheme.want {
			t.Errorf("scheme %v != %q", scheme.s, scheme.want)
		}
	}
}

func TestMixHelpers(t *testing.T) {
	if len(Mixes()) != 10 {
		t.Errorf("Mixes() = %d entries", len(Mixes()))
	}
	m, err := MixByID("ccomp")
	if err != nil || m.VM1 != CComp {
		t.Errorf("MixByID = %+v, %v", m, err)
	}
	if _, err := MixByID("nope"); err == nil {
		t.Error("unknown mix accepted")
	}
	hm := HomogeneousMix(Canneal)
	if hm.VM1 != Canneal || hm.VM2 != Canneal || hm.ID != "canneal" {
		t.Errorf("HomogeneousMix = %+v", hm)
	}
	b, err := ParseBenchmark("strcls")
	if err != nil || b != StreamCluster {
		t.Errorf("ParseBenchmark = %v, %v", b, err)
	}
}

func TestMixByIDMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MixByIDMust("definitely-not-a-mix")
}

// TestSchemeOrderingEndToEnd is the repository's headline smoke check: on a
// TLB-hostile homogeneous mix, the conventional system must trail the
// POM-TLB baseline, and CSALT must not trail it meaningfully (at full
// scale it leads; tiny scale leaves a little noise).
func TestSchemeOrderingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ordering check")
	}
	cfg := facadeConfig()
	cfg.Scale = 0.15
	cfg.MaxRefsPerCore = 60_000
	cfg.WarmupRefs = 12_000

	conv := cfg
	conv.Org = OrgConventional
	convRes, err := Run(conv)
	if err != nil {
		t.Fatal(err)
	}
	pomRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cd := cfg
	cd.Scheme = SchemeCSALTCD
	cdRes, err := Run(cd)
	if err != nil {
		t.Fatal(err)
	}
	if convRes.IPCGeomean >= pomRes.IPCGeomean {
		t.Errorf("conventional (%.4f) did not trail POM-TLB (%.4f)",
			convRes.IPCGeomean, pomRes.IPCGeomean)
	}
	if cdRes.IPCGeomean < pomRes.IPCGeomean*0.97 {
		t.Errorf("CSALT-CD (%.4f) fell more than 3%% below POM-TLB (%.4f)",
			cdRes.IPCGeomean, pomRes.IPCGeomean)
	}
}
