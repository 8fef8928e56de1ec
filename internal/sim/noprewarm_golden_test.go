package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenShape is one configuration a digest golden pins.
type goldenShape struct {
	name string
	cfg  Config
}

// noPrewarmShapes is the demand-mapping matrix the NoPrewarm golden pins:
// every translation organisation, native and virtualized, at 4 KB and
// 2 MB granularity. For a native VM the granule is the data page size
// (HugePages); for a virtualized VM it is the EPT backing (EPT4K off =
// 2 MB EPT mappings).
func noPrewarmShapes() []goldenShape {
	var out []goldenShape
	orgs := []struct {
		name string
		org  TranslationOrg
	}{{"conventional", OrgConventional}, {"pom", OrgPOM}, {"tsb", OrgTSB}}
	for _, o := range orgs {
		for _, virt := range []bool{false, true} {
			for _, huge := range []bool{false, true} {
				cfg := tinyConfig()
				cfg.NoPrewarm = true
				cfg.Org = o.org
				cfg.Virtualized = virt
				mode, size := "native", "4K"
				if virt {
					mode = "virt"
					cfg.EPT4K = !huge
				} else {
					cfg.HugePages = huge
				}
				if huge {
					size = "2M"
				}
				out = append(out, goldenShape{fmt.Sprintf("%s/%s/%s", o.name, mode, size), cfg})
			}
		}
	}
	return out
}

// resultsDigest runs cfg under the named engine and returns the sha256 of
// its JSON-encoded Results.
func resultsDigest(t *testing.T, cfg Config, engine string) string {
	t.Helper()
	cfg.Engine = engine
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(rj)
	return hex.EncodeToString(sum[:])
}

// goldenDigests runs every shape on both engines, requires the two to
// agree, and returns one "name digest" line per shape.
func goldenDigests(t *testing.T, shapes []goldenShape) string {
	t.Helper()
	var got strings.Builder
	for _, sh := range shapes {
		fast := resultsDigest(t, sh.cfg, EngineFast)
		ref := resultsDigest(t, sh.cfg, EngineReference)
		if fast != ref {
			t.Errorf("%s: engines diverged: fast %s, reference %s", sh.name, fast, ref)
		}
		fmt.Fprintf(&got, "%s %s\n", sh.name, fast)
	}
	return got.String()
}

// checkGolden compares got with the golden file at path, or rewrites the
// file when -update is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Results drifted from %s (re-run with -update if intended)\n--- want ---\n%s--- got ---\n%s",
			path, want, got)
	}
}

// TestNoPrewarmGolden pins the Results of the demand-mapped (NoPrewarm)
// matrix on both engines. Without prewarm every page is mapped by a soft
// fault on first touch, so the frame-allocation order — and with it every
// cached PTE line, POM entry and statistic — depends on where the
// simulator takes those faults. The engine-equivalence suite moves both
// engines together and no experiment table runs NoPrewarm, so this file
// is what holds first-touch mapping order fixed across refactors.
//
//	go test ./internal/sim -run TestNoPrewarmGolden -update
func TestNoPrewarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("24 tiny simulations")
	}
	checkGolden(t, filepath.Join("testdata", "no_prewarm.golden"), goldenDigests(t, noPrewarmShapes()))
}
