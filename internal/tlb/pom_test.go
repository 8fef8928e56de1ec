package tlb

import (
	"runtime"
	"testing"
	"testing/quick"

	"github.com/csalt-sim/csalt/internal/mem"
)

const pomBase = mem.PAddr(0x800000000)

func newPOM(t *testing.T, size uint64) *POM {
	t.Helper()
	p, err := NewPOM(pomBase, size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPOMValidation(t *testing.T) {
	for name, mk := range map[string]func(mem.PAddr, uint64) (*POM, error){"reference": NewPOM, "flat": NewPOMFlat} {
		if _, err := mk(pomBase, 100); err == nil {
			t.Errorf("%s: non-power-of-two size accepted", name)
		}
		if _, err := mk(pomBase+1, 1<<20); err == nil {
			t.Errorf("%s: unaligned base accepted", name)
		}
		if _, err := mk(pomBase, 16); err == nil {
			t.Errorf("%s: sub-line size accepted", name)
		}
		if _, err := mk(pomBase, 16<<20); err != nil {
			t.Errorf("%s: paper-sized POM rejected: %v", name, err)
		}
	}
}

// TestNewPOMFlatAllocatesOnlyFlatLayout: the flat constructor allocates
// its 16 MB packed array and nothing else — in particular not the
// reference layout's 48 MB entry array.
func TestNewPOMFlatAllocatesOnlyFlatLayout(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := NewPOMFlat(pomBase, 16<<20)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 17<<20 {
		t.Errorf("NewPOMFlat(16 MB) allocated %.1f MB, want under 17", float64(got)/(1<<20))
	}
	runtime.KeepAlive(p)
}

func TestPOMContains(t *testing.T) {
	p := newPOM(t, 1<<20)
	if !p.Contains(pomBase) || !p.Contains(pomBase+(1<<20)-1) {
		t.Error("Contains misses interior")
	}
	if p.Contains(pomBase-1) || p.Contains(pomBase+(1<<20)) {
		t.Error("Contains includes exterior")
	}
	if p.Base() != pomBase || p.Size() != 1<<20 {
		t.Error("accessors wrong")
	}
}

func TestPOMLineAddrInRegion(t *testing.T) {
	p := newPOM(t, 1<<20)
	f := func(v uint64, asid uint16) bool {
		a := p.LineAddr(mem.VAddr(v), mem.ASID(asid))
		return p.Contains(a) && uint64(a)%mem.LineSize == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPOMLookupInsert(t *testing.T) {
	p := newPOM(t, 1<<20)
	v := mem.VAddr(0x7f0000123000)
	if _, ok := p.Lookup(v, 1); ok {
		t.Fatal("cold POM lookup hit")
	}
	p.Insert(v, 1, 0x1234000)
	frame, ok := p.Lookup(v+0xFFF, 1)
	if !ok || frame != 0x1234000 {
		t.Fatalf("POM lookup = %#x,%v", frame, ok)
	}
	// ASID isolation.
	if _, ok := p.Lookup(v, 2); ok {
		t.Error("other ASID hit")
	}
	if p.Inserts.Value() != 1 {
		t.Errorf("inserts = %d", p.Inserts.Value())
	}
}

func TestPOMSetConflictEviction(t *testing.T) {
	// Tiny POM: 4 lines = 4 sets x 4 ways = 16 entries. Insert many pages;
	// capacity stays bounded and recent insertions survive their own set.
	p := newPOM(t, 256)
	for i := 0; i < 64; i++ {
		p.Insert(mem.VAddr(i)<<mem.PageShift4K, 1, mem.PAddr(i)<<mem.PageShift4K)
	}
	if u := p.Utilization(); u != 1.0 {
		t.Errorf("utilization = %v, want 1.0 after flooding", u)
	}
	hits := 0
	for i := 0; i < 64; i++ {
		if _, ok := p.Lookup(mem.VAddr(i)<<mem.PageShift4K, 1); ok {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("%d of 64 pages resident in a 16-entry POM, want exactly 16", hits)
	}
}

func TestPOMInsertRefreshes(t *testing.T) {
	p := newPOM(t, 256)
	v := mem.VAddr(0x5000)
	p.Insert(v, 1, 0x1000)
	p.Insert(v, 1, 0x2000)
	frame, ok := p.Lookup(v, 1)
	if !ok || frame != 0x2000 {
		t.Fatalf("refreshed lookup = %#x,%v", frame, ok)
	}
}

func TestPOMUtilizationGrows(t *testing.T) {
	p := newPOM(t, 1<<16)
	if p.Utilization() != 0 {
		t.Error("fresh POM not empty")
	}
	for i := 0; i < 100; i++ {
		p.Insert(mem.VAddr(i)<<mem.PageShift4K, 1, 0)
	}
	if u := p.Utilization(); u <= 0 {
		t.Errorf("utilization = %v after 100 inserts", u)
	}
}

// TestPOMTranslationCorrectness: a lookup hit always returns the most
// recently inserted frame for that (asid, page), under any churn.
func TestPOMTranslationCorrectness(t *testing.T) {
	f := func(ops []uint32) bool {
		p := newPOM(t, 4096)
		truth := map[[2]uint64]mem.PAddr{}
		for _, op := range ops {
			page := uint64(op) % 512
			asid := mem.ASID(op>>16) % 3
			v := mem.VAddr(page << mem.PageShift4K)
			frame := mem.PAddr(uint64(op)|1) << mem.PageShift4K
			p.Insert(v, asid, frame)
			truth[[2]uint64{page, uint64(asid)}] = frame
			if got, ok := p.Lookup(v, asid); !ok || got != frame {
				return false
			}
			// Random other probe: if it hits, it must match truth.
			probe := uint64(op>>8) % 512
			if got, ok := p.Lookup(mem.VAddr(probe<<mem.PageShift4K), asid); ok {
				if want, seen := truth[[2]uint64{probe, uint64(asid)}]; !seen || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPOMMultiSize(t *testing.T) {
	p := newPOM(t, 1<<20)
	v := mem.VAddr(0x40000000)
	p.InsertSized(v, 1, 0x200000, mem.Page2M)
	// 4K-only lookup misses: the entry is a 2M one.
	if _, ok := p.Lookup(v, 1); ok {
		t.Error("4K lookup matched a 2M entry")
	}
	frame, size, ok := p.LookupAnySize(v+0x123456, 1)
	if !ok || frame != 0x200000 || size != mem.Page2M {
		t.Fatalf("LookupAnySize = %#x,%v,%v", frame, size, ok)
	}
	// A 4K entry for an overlapping address coexists and wins the probe
	// order.
	p.Insert(v, 1, 0x999000)
	frame, size, ok = p.LookupAnySize(v, 1)
	if !ok || frame != 0x999000 || size != mem.Page4K {
		t.Fatalf("4K-first probe = %#x,%v,%v", frame, size, ok)
	}
}

func TestPOMLineAddrSizedDistinct(t *testing.T) {
	p := newPOM(t, 1<<20)
	v := mem.VAddr(0x40000000)
	a4 := p.LineAddrSized(v, 1, mem.Page4K)
	a2 := p.LineAddrSized(v, 1, mem.Page2M)
	if !p.Contains(a4) || !p.Contains(a2) {
		t.Fatal("sized line addresses escape the POM region")
	}
	if a4 == a2 {
		t.Error("4K and 2M sets collide for the same address (hash ignores size)")
	}
	if p.LineAddr(v, 1) != a4 {
		t.Error("LineAddr does not default to the 4K set")
	}
}
