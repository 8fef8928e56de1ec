package sim

import (
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/trace"
)

// prewarmBatchLen is how many pages' fills a prewarm batch holds: enough
// independent POM set or TSB entry loads to keep the host's outstanding
// misses busy, few enough that the batch itself stays in its L1 cache.
const prewarmBatchLen = 32

// prewarmFill is one prewarmed page's queued translation fill.
type prewarmFill struct {
	vm *vmState
	v  mem.VAddr
	pm pageMapping
}

// prewarmBatch installs footprint pages' translations for New. It maps
// each page at once, in footprint order, because the frame-allocation
// order is part of every result. The page's POM-TLB or TSB fill waits in
// the batch. A full batch is applied in two passes: the first loads
// every fill's POM set line or TSB entries, independent loads whose host
// cache misses the CPU overlaps; the second inserts in queue order,
// which fixes POM ranks and evictions exactly as inserting each page
// when it is mapped would. Mapping never reads the POM-TLB or TSBs, so
// deferring their inserts leaves them bit-identical.
type prewarmBatch struct {
	m     *memSystem
	fills []prewarmFill
	// sink keeps the first pass's loads live; nothing reads it. It lives
	// here, not in a global, because sweeps build systems concurrently.
	sink uint64
}

func newPrewarmBatch(m *memSystem) *prewarmBatch {
	return &prewarmBatch{m: m, fills: make([]prewarmFill, 0, prewarmBatchLen)}
}

// prewarm demand-maps every page of fp's footprint into vm's tables and
// installs its translation in the memory-resident translation structures
// (POM-TLB, TSBs), without touching any hardware TLB or cache state.
func (b *prewarmBatch) prewarm(vm *vmState, fp trace.Footprinter) error {
	var err error
	fp.VisitFootprint(func(v mem.VAddr) {
		if err == nil {
			err = b.add(vm, v)
		}
	})
	if err != nil {
		return err
	}
	b.flush()
	return nil
}

// add maps v's page and queues its fill, applying the batch once it is
// full. A page this call maps is filled from the frames the mapping step
// just chose; only an already-mapped page costs a table walk.
func (b *prewarmBatch) add(vm *vmState, v mem.VAddr) error {
	pm, created, err := vm.ensureMapped(v)
	if err != nil {
		return err
	}
	if b.m.pom == nil && b.m.cfg.Org != OrgTSB {
		return nil
	}
	if !created {
		if pm, err = vm.resolve(v); err != nil {
			return err
		}
	}
	b.fills = append(b.fills, prewarmFill{vm: vm, v: v, pm: pm})
	if len(b.fills) == cap(b.fills) {
		b.flush()
	}
	return nil
}

// flush applies the queued fills: every target loaded first, then every
// insert in queue order.
func (b *prewarmBatch) flush() {
	var sink uint64
	for i := range b.fills {
		f := &b.fills[i]
		sink += b.m.peekTranslation(f.vm, f.v, f.pm)
	}
	b.sink += sink
	for i := range b.fills {
		f := &b.fills[i]
		b.m.installTranslation(f.vm, f.v, f.pm)
	}
	b.fills = b.fills[:0]
}

// peekTranslation loads the POM set or TSB entries installTranslation
// writes for the same arguments, and returns a value derived from them.
func (m *memSystem) peekTranslation(vm *vmState, v mem.VAddr, pm pageMapping) uint64 {
	var w uint64
	if m.pom != nil {
		w = m.pom.Peek(v, vm.asid, pm.size)
	}
	if m.cfg.Org == OrgTSB {
		if vm.space.Virtualized() {
			w += m.gtsb[vm.asid].Peek(v, vm.asid) + m.htsb[vm.asid].Peek(mem.VAddr(pm.guestPage(v)), vm.asid)
		} else {
			w += m.htsb[vm.asid].Peek(v, vm.asid)
		}
	}
	return w
}

// installTranslation installs v's translation pm in the POM-TLB or the
// TSBs.
func (m *memSystem) installTranslation(vm *vmState, v mem.VAddr, pm pageMapping) {
	if m.pom != nil {
		// Only a native huge-page VM has 2 MB guest leaves.
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
}
