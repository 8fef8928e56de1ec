package pagetable

import (
	"testing"
	"unsafe"

	"github.com/csalt-sim/csalt/internal/mem"
)

// eptAlloc places guest table nodes in guest-physical memory and maps
// each node frame into the host table, as the simulator's VMs do, so a
// 2-D walk can translate every guest PTE address.
type eptAlloc struct {
	inner *mem.FrameAllocator
	host  *Table
	hostA *mem.FrameAllocator
}

func (a *eptAlloc) Alloc4K() (mem.PAddr, error) {
	gpa, err := a.inner.Alloc4K()
	if err != nil {
		return 0, err
	}
	hpa, err := a.hostA.Alloc4K()
	if err != nil {
		return 0, err
	}
	return gpa, a.host.Map(mem.VAddr(gpa), hpa, mem.Page4K)
}

// walkBench is a virtualized address space shaped like connectedcomponent's:
// a guest footprint spread across the VA space with about 8 pages per leaf
// node, backed by sequential guest-physical frames that the host table
// maps densely (512 pages per host leaf) onto scrambled host frames.
type walkBench struct {
	guest, host *Table
	pages       []mem.VAddr
}

func newWalkBench(b *testing.B) *walkBench {
	const (
		footprint  = 1 << 16 // guest pages
		pageStride = 64      // 512/64 = 8 pages per guest leaf node
	)
	hostA := mem.NewFrameAllocator(0, 4<<30, true)
	host, err := New(hostA, 4)
	if err != nil {
		b.Fatal(err)
	}
	gPT := &eptAlloc{inner: mem.NewFrameAllocator(2<<30, 512<<20, false), host: host, hostA: hostA}
	guest, err := New(gPT, 4)
	if err != nil {
		b.Fatal(err)
	}
	gData := mem.NewFrameAllocator(0, 2<<30, false)
	w := &walkBench{guest: guest, host: host, pages: make([]mem.VAddr, footprint)}
	for i := range w.pages {
		v := mem.VAddr(uint64(i) * pageStride << mem.PageShift4K)
		gpa, err := gData.Alloc4K()
		if err != nil {
			b.Fatal(err)
		}
		hpa, err := hostA.Alloc4K()
		if err != nil {
			b.Fatal(err)
		}
		if err := guest.Map(v, gpa, mem.Page4K); err != nil {
			b.Fatal(err)
		}
		if err := host.Map(mem.VAddr(gpa), hpa, mem.Page4K); err != nil {
			b.Fatal(err)
		}
		w.pages[i] = v
	}
	return w
}

// BenchmarkTableMap measures building the walk benchmark's address space
// page by page, as a simulation's set-up does: each footprint page is a
// guest map (its new table nodes EPT-backed through eptAlloc, so each
// node frame is also a host map) plus a host map of its data gPA, which
// the host table holds densely. It reports set-up time per footprint
// page and the two tables' PTE-store bytes per stored entry.
// `make bench` runs it once; perfbench measures the whole simulator.
func BenchmarkTableMap(b *testing.B) {
	b.ReportAllocs()
	var w *walkBench
	for i := 0; i < b.N; i++ {
		w = newWalkBench(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w.pages)), "ns/page")
	var bytes, ptes int
	for _, t := range []*Table{w.guest, w.host} {
		bytes += len(t.ptes.slots) * int(unsafe.Sizeof(t.ptes.slots[0]))
		ptes += t.ptes.n
	}
	b.ReportMetric(float64(bytes)/float64(ptes), "B/pte")
}

// xorshift picks the next footprint page — cheap enough not to drown the
// walk under measurement.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// BenchmarkTableWalk measures one translation of a random footprint page:
// "1d" walks the guest table alone (Figure 2a's native walk); "2d" also
// walks the host table for every guest PTE address and for the leaf
// (Figure 2b's nested walk, 24 PTE reads on 4-level tables, with no PSC
// or nested TLB to skip any). `make bench` runs it once; perfbench
// measures the whole simulator.
func BenchmarkTableWalk(b *testing.B) {
	w := newWalkBench(b)
	b.Run("1d", func(b *testing.B) {
		var steps []Step
		rng := uint64(0x9E3779B97F4A7C15)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng = xorshift(rng)
			var ok bool
			if steps, _, _, ok = w.guest.Walk(w.pages[rng%uint64(len(w.pages))], steps[:0]); !ok {
				b.Fatal("footprint page unmapped")
			}
		}
	})
	b.Run("2d", func(b *testing.B) {
		var steps, hostSteps []Step
		rng := uint64(0x9E3779B97F4A7C15)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng = xorshift(rng)
			var frame mem.PAddr
			var ok bool
			if steps, frame, _, ok = w.guest.Walk(w.pages[rng%uint64(len(w.pages))], steps[:0]); !ok {
				b.Fatal("footprint page unmapped")
			}
			for _, s := range steps {
				if hostSteps, _, _, ok = w.host.Walk(mem.VAddr(s.Addr), hostSteps[:0]); !ok {
					b.Fatal("guest PTE unmapped in host table")
				}
			}
			if hostSteps, _, _, ok = w.host.Walk(mem.VAddr(frame), hostSteps[:0]); !ok {
				b.Fatal("guest frame unmapped in host table")
			}
		}
	})
}
