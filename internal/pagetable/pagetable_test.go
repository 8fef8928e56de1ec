package pagetable

import (
	"runtime"
	"testing"
	"testing/quick"

	"github.com/csalt-sim/csalt/internal/mem"
)

func newTable(t *testing.T, levels int) (*Table, *mem.FrameAllocator) {
	t.Helper()
	alloc := mem.NewFrameAllocator(0x100000000, 256<<20, false)
	tbl, err := New(alloc, levels)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, alloc
}

func TestNewValidation(t *testing.T) {
	alloc := mem.NewFrameAllocator(0, 2<<20, false)
	if _, err := New(alloc, 3); err == nil {
		t.Error("expected error for depth 3")
	}
	if _, err := New(alloc, 6); err == nil {
		t.Error("expected error for depth 6")
	}
}

func TestMapLookup4K(t *testing.T) {
	tbl, _ := newTable(t, 4)
	v := mem.VAddr(0x7f1234567000)
	frame := mem.PAddr(0x200000000)
	if err := tbl.Map(v, frame, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	got, size, ok := tbl.Lookup(v + 0xabc)
	if !ok || got != frame || size != mem.Page4K {
		t.Fatalf("Lookup = %#x,%v,%v; want %#x,4K,true", got, size, ok, frame)
	}
	// Translate includes the page offset.
	pa, ok := tbl.Translate(v + 0xabc)
	if !ok || pa != frame+0xabc {
		t.Errorf("Translate = %#x, want %#x", pa, frame+0xabc)
	}
	// Unmapped neighbour page misses.
	if _, _, ok := tbl.Lookup(v + mem.PageSize4K); ok {
		t.Error("unmapped page resolved")
	}
}

func TestMapLookup2M(t *testing.T) {
	tbl, _ := newTable(t, 4)
	v := mem.VAddr(0x40000000)
	frame := mem.PAddr(0x200000)
	if err := tbl.Map(v, frame, mem.Page2M); err != nil {
		t.Fatal(err)
	}
	pa, ok := tbl.Translate(v + 0x123456)
	if !ok || pa != frame+0x123456 {
		t.Errorf("2M Translate = %#x,%v", pa, ok)
	}
	p4, p2 := tbl.MappedPages()
	if p4 != 0 || p2 != 1 {
		t.Errorf("MappedPages = %d,%d", p4, p2)
	}
}

func TestMapErrors(t *testing.T) {
	tbl, _ := newTable(t, 4)
	v := mem.VAddr(0x1000)
	if err := tbl.Map(v, 0x1234, mem.Page4K); err == nil {
		t.Error("unaligned frame accepted")
	}
	if err := tbl.Map(v, 0x2000, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	// Identical remap is idempotent.
	if err := tbl.Map(v, 0x2000, mem.Page4K); err != nil {
		t.Errorf("idempotent remap rejected: %v", err)
	}
	// Conflicting remap fails.
	if err := tbl.Map(v, 0x3000, mem.Page4K); err == nil {
		t.Error("conflicting remap accepted")
	}
	// A 4K map under an existing 2M leaf fails.
	if err := tbl.Map(0x40000000, 0x200000, mem.Page2M); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x40001000, 0x4000, mem.Page4K); err == nil {
		t.Error("map under 2M leaf accepted")
	}
	// Frames must lie below 2^38, the bound the PTE store packs into.
	for _, c := range []struct {
		v     mem.VAddr
		frame mem.PAddr
		size  mem.PageSize
		ok    bool
	}{
		{0x80000000, 1<<38 - mem.PageSize4K, mem.Page4K, true},
		{0x80001000, 1 << 38, mem.Page4K, false},
		{0xc0000000, 1<<38 - mem.PageSize2M, mem.Page2M, true},
		{0xc0200000, 1 << 38, mem.Page2M, false},
	} {
		err := tbl.Map(c.v, c.frame, c.size)
		if (err == nil) != c.ok {
			t.Errorf("Map(%#x, %#x, %s) = %v, want accepted %v", c.v, c.frame, c.size, err, c.ok)
		}
		frame, size, ok := tbl.Lookup(c.v)
		if ok != c.ok || (ok && (frame != c.frame || size != c.size)) {
			t.Errorf("Lookup(%#x) = %#x,%v,%v after Map(%#x, %s)", c.v, frame, size, ok, c.frame, c.size)
		}
	}
	// A node frame at 2^38 is refused, not truncated: this allocator hands
	// out 2^38 - 4 KB for the root and 2^38 next.
	high, err := New(newRecordingAlloc(2, true), 4)
	if err != nil {
		t.Fatalf("root frame below 2^38 refused: %v", err)
	}
	if err := high.Map(v, 0x2000, mem.Page4K); err == nil {
		t.Error("node frame 2^38 accepted")
	}
	if _, _, ok := high.Lookup(v); ok {
		t.Error("map through a refused node frame resolved")
	}
}

func TestWalkStepCount(t *testing.T) {
	tbl, _ := newTable(t, 4)
	v := mem.VAddr(0x7f0000000000)
	if err := tbl.Map(v, 0x5000, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	steps, frame, size, ok := tbl.Walk(v, nil)
	if !ok || frame != 0x5000 || size != mem.Page4K {
		t.Fatalf("Walk = %#x,%v,%v", frame, size, ok)
	}
	if len(steps) != 4 {
		t.Fatalf("4-level walk took %d steps, want 4", len(steps))
	}
	for i, s := range steps {
		if s.Level != 4-i {
			t.Errorf("step %d level = %d, want %d", i, s.Level, 4-i)
		}
		if s.Addr%entryBytes != 0 {
			t.Errorf("step %d PTE addr %#x not 8-byte aligned", i, s.Addr)
		}
	}
	// 2M mapping walks in 3 steps.
	if err := tbl.Map(0x40000000, 0x200000, mem.Page2M); err != nil {
		t.Fatal(err)
	}
	steps, _, size, ok = tbl.Walk(0x40000000, steps[:0])
	if !ok || size != mem.Page2M || len(steps) != 3 {
		t.Errorf("2M walk = %d steps, size %v", len(steps), size)
	}
}

func TestWalkFailurePartialSteps(t *testing.T) {
	tbl, _ := newTable(t, 4)
	steps, _, _, ok := tbl.Walk(0xdead000, nil)
	if ok {
		t.Fatal("walk of unmapped address succeeded")
	}
	if len(steps) != 1 {
		t.Errorf("failed walk touched %d PTEs, want 1 (root entry)", len(steps))
	}
}

func TestFiveLevelWalk(t *testing.T) {
	tbl, _ := newTable(t, 5)
	v := mem.VAddr(0x1FF0000000000) // beyond 48-bit space
	if err := tbl.Map(v, 0x6000, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	steps, frame, _, ok := tbl.Walk(v, nil)
	if !ok || frame != 0x6000 {
		t.Fatal("5-level walk failed")
	}
	if len(steps) != 5 {
		t.Errorf("5-level walk took %d steps", len(steps))
	}
}

func TestNodeSharing(t *testing.T) {
	tbl, _ := newTable(t, 4)
	// Two pages in the same 2MB region share all interior nodes: mapping
	// the second allocates no new nodes.
	if err := tbl.Map(0x1000, 0x10000, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	before := tbl.NodeCount()
	if err := tbl.Map(0x2000, 0x11000, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.NodeCount() != before {
		t.Errorf("sibling map allocated %d new nodes", tbl.NodeCount()-before)
	}
	// A distant page allocates three new interior nodes (L3, L2, L1).
	if err := tbl.Map(0x7f0000000000, 0x12000, mem.Page4K); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NodeCount() - before; got != 3 {
		t.Errorf("distant map allocated %d nodes, want 3", got)
	}
}

// TestWalkMatchesLookup: Walk and Lookup agree for arbitrary map/lookup
// sequences.
func TestWalkMatchesLookup(t *testing.T) {
	f := func(pages []uint32) bool {
		alloc := mem.NewFrameAllocator(0x100000000, 512<<20, false)
		tbl, err := New(alloc, 4)
		if err != nil {
			return false
		}
		dataAlloc := mem.NewFrameAllocator(0x800000000, 512<<20, false)
		var steps []Step
		for _, pg := range pages {
			v := mem.VAddr(uint64(pg) << mem.PageShift4K)
			if _, _, ok := tbl.Lookup(v); !ok {
				frame, err := dataAlloc.Alloc4K()
				if err != nil {
					return false
				}
				if err := tbl.Map(v, frame, mem.Page4K); err != nil {
					return false
				}
			}
			var f1, f2 mem.PAddr
			var ok1, ok2 bool
			f1, _, ok1 = tbl.Lookup(v)
			steps, f2, _, ok2 = tbl.Walk(v, steps[:0])
			if ok1 != ok2 || f1 != f2 || !ok1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStepsWithinNodeFrames: every walk step's PTE address falls inside a
// frame the table actually allocated.
func TestStepsWithinNodeFrames(t *testing.T) {
	tbl, alloc := newTable(t, 4)
	base := alloc.Base()
	for i := 0; i < 100; i++ {
		v := mem.VAddr(uint64(i) * 3 << 21) // spread across PDs
		if err := tbl.Map(v, mem.PAddr(uint64(i+1)<<mem.PageShift4K), mem.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	var steps []Step
	for i := 0; i < 100; i++ {
		v := mem.VAddr(uint64(i) * 3 << 21)
		var ok bool
		steps, _, _, ok = tbl.Walk(v, steps[:0])
		if !ok {
			t.Fatal("walk failed")
		}
		for _, s := range steps {
			if s.Addr < base || s.Addr >= alloc.Limit() {
				t.Fatalf("PTE %#x outside node allocator range", s.Addr)
			}
		}
	}
}

// TestScatteredTableAllocBytes: a table of 100,000 pages scattered over
// the 48-bit VA space — about 300,000 PTEs, the sparse shape that makes
// the PTE store the table's whole footprint — allocates about 8 MB while
// it is built: 8-byte slots, doubling from 256 up to 2^20. The bound
// sits halfway to the 16 MB that slots holding the address beside the
// word would take, so a store that stops packing fails it.
func TestScatteredTableAllocBytes(t *testing.T) {
	const pages = 100_000
	nodes := mem.NewFrameAllocator(0, 4<<30, true)
	data := mem.NewFrameAllocator(4<<30, 4<<30, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl, err := New(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		v := mem.VAddr(i * 0x9E3779B97F4A7C15 >> 28 << mem.PageShift4K) // 36-bit page number
		frame, err := data.Alloc4K()
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Map(v, frame, mem.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if p4, _ := tbl.MappedPages(); p4 != pages {
		t.Fatalf("mapped %d pages, want %d", p4, pages)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d pages, %d PTEs: %d bytes allocated", pages, tbl.ptes.n, got)
	if got > 12<<20 {
		t.Errorf("building the table allocated %d bytes, want at most %d", got, 12<<20)
	}
}

// TestPTEStoreGrowsAtSevenEighths pins the store's load bound over three
// doublings: a store holding ⌊7/8·len⌋ entries has not grown and the next
// insert doubles it, every inserted key reads back its word, and every
// key absent from a store at the bound reads 0 — at most 7/8 full, the
// store keeps empty slots, and an empty slot ends every probe.
func TestPTEStoreGrowsAtSevenEighths(t *testing.T) {
	// Keys are scattered PTE addresses below 2^38 and include address 0;
	// words are present leaves with distinct frames.
	addr := func(i int) mem.PAddr { return mem.PAddr(uint64(i)*0x9E3779B97F4A7C15>>29) &^ 7 }
	word := func(i int) uint64 { return leafWord(mem.PAddr(i+1)<<mem.PageShift4K, mem.Page4K) }
	s := newPTEStore()
	n := 0
	for round := 0; round < 3; round++ {
		slots := len(s.slots)
		for ; n < slots*7/8; n++ {
			s.insert(addr(n), word(n))
		}
		if len(s.slots) != slots {
			t.Fatalf("store of %d entries grew from %d to %d slots; want growth only past %d", n, slots, len(s.slots), slots*7/8)
		}
		for i := 0; i < n; i++ {
			if got := s.get(addr(i)); got != word(i) {
				t.Fatalf("%d entries in %d slots: key %#x reads %#x, want %#x", n, slots, addr(i), got, word(i))
			}
		}
		for i := n; i < n+4*slots; i++ {
			if got := s.get(addr(i)); got != 0 {
				t.Fatalf("%d entries in %d slots: absent key %#x reads %#x, want 0", n, slots, addr(i), got)
			}
		}
		s.insert(addr(n), word(n))
		n++
		if len(s.slots) != 2*slots {
			t.Fatalf("insert %d into a store at the bound left %d slots, want %d", n, len(s.slots), 2*slots)
		}
		for i := 0; i < n; i++ {
			if got := s.get(addr(i)); got != word(i) {
				t.Fatalf("after doubling to %d slots: key %#x reads %#x, want %#x", len(s.slots), addr(i), got, word(i))
			}
		}
	}
}
