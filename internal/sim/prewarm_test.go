package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/pagetable"
	"github.com/csalt-sim/csalt/internal/tlb"
	"github.com/csalt-sim/csalt/internal/trace"
	"github.com/csalt-sim/csalt/internal/workload"
)

// prewarmPerPage is prewarm without the batch: map v's page, then fill
// its POM-TLB or TSB entries at once. It is the order the batch must
// reproduce, kept here as its oracle.
func prewarmPerPage(m *memSystem, vm *vmState, v mem.VAddr) error {
	pm, created, err := vm.ensureMapped(v)
	if err != nil {
		return err
	}
	if m.pom == nil && m.cfg.Org != OrgTSB {
		return nil
	}
	if !created {
		if pm, err = vm.resolve(v); err != nil {
			return err
		}
	}
	if m.pom != nil {
		if pm.size == mem.Page2M {
			m.pom.InsertSized(v, vm.asid, pm.leaf, mem.Page2M)
		} else {
			m.pom.Insert(v, vm.asid, pm.hpa)
		}
	}
	if m.cfg.Org == OrgTSB {
		if vm.space.Virtualized() {
			gpa := pm.guestPage(v)
			m.gtsb[vm.asid].Insert(v, vm.asid, gpa)
			m.htsb[vm.asid].Insert(mem.VAddr(gpa), vm.asid, pm.hpa)
		} else {
			m.htsb[vm.asid].Insert(v, vm.asid, pm.hpa)
		}
	}
	return nil
}

// visitFootprints calls fn with every (core, context) footprint of s, in
// the order New prewarms them.
func visitFootprints(tb testing.TB, s *System, fn func(vm *vmState, fp trace.Footprinter)) {
	tb.Helper()
	for c := 0; c < s.cfg.Cores; c++ {
		for vi, vm := range s.vms {
			src, err := newSource(s.cfg, vm, c, vi)
			if err != nil {
				tb.Fatal(err)
			}
			if fp, ok := src.(trace.Footprinter); ok {
				fn(vm, fp)
			}
		}
	}
}

// footprintPages counts the footprint pages New prewarms for cfg.
func footprintPages(tb testing.TB, cfg Config) int {
	tb.Helper()
	cfg.NoPrewarm = true
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	visitFootprints(tb, s, func(_ *vmState, fp trace.Footprinter) {
		fp.VisitFootprint(func(mem.VAddr) { n++ })
	})
	return n
}

// newPerPage builds cfg's system with the per-page prewarm: New without
// prewarm, then every footprint page through prewarmPerPage.
func newPerPage(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.NoPrewarm = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	visitFootprints(t, s, func(vm *vmState, fp trace.Footprinter) {
		fp.VisitFootprint(func(v mem.VAddr) {
			if err == nil {
				err = prewarmPerPage(s.mem, vm, v)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeTraces records the first records of every (core, context) stream
// of cfg into dir, in the layout Config.TraceDir replays.
func writeTraces(t *testing.T, cfg Config, dir string, records int) {
	t.Helper()
	cfg.NoPrewarm = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cores; c++ {
		for vi, vm := range s.vms {
			src, err := newSource(cfg, vm, c, vi)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("vm%d_core%d.trace", vi+1, c)))
			if err != nil {
				t.Fatal(err)
			}
			w, err := trace.NewWriter(f)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < records; i++ {
				r, _ := src.Next()
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBatchedPrewarmMatchesPerPage: New's batched prewarm leaves every
// structure it writes exactly as mapping and filling one page at a time
// does — the POM-TLB's words in either layout, the TSBs' tags and
// frames, each table's node and page counts and every frame allocator's
// position — over every organisation and page-table shape prewarm
// reaches, and over a trace-replay source.
func TestBatchedPrewarmMatchesPerPage(t *testing.T) {
	traceDir := t.TempDir()
	traceCfg := tinyConfig()
	traceCfg.Cores = 1
	writeTraces(t, traceCfg, traceDir, 20_000)

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"pom/virt/ept4k", func(c *Config) {}},
		{"pom/virt/ept4k/reference", func(c *Config) { c.Engine = EngineReference }},
		// A 1 MB POM-TLB (65,536 entries) under a scale-0.25 footprint
		// overflows, so fills evict and the insert order decides which
		// entries survive.
		{"pom/virt/ept4k/1MB", func(c *Config) { c.POMSizeMB, c.Scale = 1, 0.25 }},
		{"pom/virt/ept4k/1MB/reference", func(c *Config) { c.POMSizeMB, c.Scale, c.Engine = 1, 0.25, EngineReference }},
		{"pom/virt/ept2m", func(c *Config) { c.EPT4K = false }},
		{"pom/native/huge", func(c *Config) { c.Virtualized = false; c.HugePages = true }},
		{"pom/virt/5level", func(c *Config) { c.PageTableLevels = 5 }},
		{"tsb/native", func(c *Config) { c.Org = OrgTSB; c.Virtualized = false }},
		{"tsb/virt", func(c *Config) { c.Org = OrgTSB }},
		{"conventional/virt", func(c *Config) { c.Org = OrgConventional }},
		{"pom/trace", func(c *Config) { c.Cores = 1; c.TraceDir = traceDir }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Mix = workload.Mix{ID: "prewarm", VM1: workload.GUPS, VM2: workload.CComp}
			tc.mutate(&cfg)
			if pages := footprintPages(t, cfg); pages <= 2*prewarmBatchLen {
				t.Fatalf("footprint of %d pages fills no more than two batches", pages)
			}
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := newPerPage(t, cfg)
			checkSamePrewarm(t, got, want)
			if pom := got.mem.pom; cfg.POMSizeMB == 1 && pom.Inserts.Value() <= uint64(pom.Sets()*tlb.EntriesPerLine) {
				t.Errorf("%d fills into a %d-entry POM-TLB: none evicted", pom.Inserts.Value(), pom.Sets()*tlb.EntriesPerLine)
			}
		})
	}
}

// checkSamePrewarm compares everything prewarm writes in got and want.
func checkSamePrewarm(t *testing.T, got, want *System) {
	t.Helper()
	gm, wm := got.mem, want.mem
	if (gm.pom == nil) != (wm.pom == nil) {
		t.Fatalf("POM-TLB present %v, want %v", gm.pom != nil, wm.pom != nil)
	}
	if wm.pom != nil {
		if !gm.pom.Equal(wm.pom) {
			t.Error("POM-TLB words differ from the per-page prewarm's")
		}
		if g, w := gm.pom.Inserts.Value(), wm.pom.Inserts.Value(); g != w || w == 0 {
			t.Errorf("POM-TLB inserts %d, want %d (nonzero)", g, w)
		}
	}
	if len(gm.gtsb) != len(wm.gtsb) || len(gm.htsb) != len(wm.htsb) {
		t.Fatalf("TSBs: %d guest, %d host; want %d, %d", len(gm.gtsb), len(gm.htsb), len(wm.gtsb), len(wm.htsb))
	}
	for asid, tsb := range wm.gtsb {
		if !gm.gtsb[asid].Equal(tsb) {
			t.Errorf("guest TSB of ASID %d differs", asid)
		}
	}
	for asid, tsb := range wm.htsb {
		if !gm.htsb[asid].Equal(tsb) {
			t.Errorf("host TSB of ASID %d differs", asid)
		}
	}
	if g, w := gm.hostA.Allocated(), wm.hostA.Allocated(); g != w {
		t.Errorf("host frames allocated %d, want %d", g, w)
	}
	for i, wvm := range want.vms {
		gvm := got.vms[i]
		if gvm.touchedPages != wvm.touchedPages {
			t.Errorf("VM %d: %d pages touched, want %d", i+1, gvm.touchedPages, wvm.touchedPages)
		}
		if wvm.gDataA != nil && gvm.gDataA.Allocated() != wvm.gDataA.Allocated() {
			t.Errorf("VM %d: guest data frames allocated %d, want %d", i+1, gvm.gDataA.Allocated(), wvm.gDataA.Allocated())
		}
		// The guest table is the only client of its node allocator (the
		// guest-physical page-table region of a virtualized VM), so its
		// node count is that allocator's position.
		tables := map[string][2]*pagetable.Table{"guest": {gvm.space.Guest, wvm.space.Guest}}
		if wvm.space.Virtualized() {
			tables["host"] = [2]*pagetable.Table{gvm.space.Host, wvm.space.Host}
		}
		for name, pair := range tables {
			if g, w := pair[0].NodeCount(), pair[1].NodeCount(); g != w {
				t.Errorf("VM %d %s table: %d nodes, want %d", i+1, name, g, w)
			}
			g4, g2 := pair[0].MappedPages()
			w4, w2 := pair[1].MappedPages()
			if g4 != w4 || g2 != w2 {
				t.Errorf("VM %d %s table: %d/%d 4K/2M pages mapped, want %d/%d", i+1, name, g4, g2, w4, w2)
			}
		}
	}
}

// TestPrewarmOutOfFramesError: a footprint larger than a VM's 2 GB
// guest-physical data space fails New with the allocator's error, named
// for the core and context being prewarmed, although the failing page
// sits inside a batch. One core of connectedcomponent at scale 6 needs
// more than the region's 524,288 4 KB frames.
func TestPrewarmOutOfFramesError(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cores = 1
	cfg.Scale = 6
	cfg.Mix = workload.Mix{ID: "ccomp", VM1: workload.CComp, VM2: workload.CComp}
	_, err := New(cfg)
	const want = "sim: prewarming core 0 ctx 0: mem: out of physical frames (524288 allocated)"
	if err == nil || err.Error() != want {
		t.Fatalf("New = %v, want error %q", err, want)
	}
}
