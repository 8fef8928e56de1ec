package sim

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/tlb"
	"github.com/csalt-sim/csalt/internal/walker"
)

// installTLBs caches a resolved translation in a core's L1 and L2 TLBs.
func (m *memSystem) installTLBs(coreID int, v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	if size == mem.Page2M {
		m.l1tlb2[coreID].Insert(v, asid, frame, size)
	} else {
		m.l1tlb[coreID].Insert(v, asid, frame, size)
	}
	m.l2tlb[coreID].Insert(v, asid, frame, size)
}

// Translate implements cpu.Translator: the full translation datapath of
// Figure 6. L1 TLB lookups overlap the L1D probe (no added latency on a
// hit); an L1 miss pays the L2 TLB's latency; an L2 miss follows the
// configured organisation — straight to the page walker (conventional),
// through the data caches to the POM-TLB, or through the TSB chain.
func (m *memSystem) Translate(now uint64, v mem.VAddr, asid mem.ASID, coreID int) (uint64, mem.PAddr, bool, error) {
	if m.intro != nil {
		m.intro.SetCore(coreID)
	}
	if int(asid) >= len(m.vmByASID) || m.vmByASID[asid] == nil {
		return 0, 0, false, fmt.Errorf("sim: no VM registered for ASID %d", asid)
	}

	if frame, size, hit := m.l1tlb[coreID].Lookup(v, asid); hit {
		return now, frame + mem.PAddr(mem.PageOffset(v, size)), false, nil
	}
	if frame, size, hit := m.l1tlb2[coreID].Lookup(v, asid); hit {
		return now, frame + mem.PAddr(mem.PageOffset(v, size)), false, nil
	}

	t := now + m.l2tlb[coreID].Latency()
	if frame, size, hit := m.l2tlb[coreID].Lookup(v, asid); hit {
		if size == mem.Page2M {
			m.l1tlb2[coreID].Insert(v, asid, frame, size)
		} else {
			m.l1tlb[coreID].Insert(v, asid, frame, size)
		}
		return t, frame + mem.PAddr(mem.PageOffset(v, size)), false, nil
	}

	// L2 TLB miss: the expensive region the whole paper is about.
	m.Stats.L2TLBMisses.Inc()
	missStart := t

	var done uint64
	var frame mem.PAddr
	var size mem.PageSize
	var err error
	switch m.cfg.Org {
	case OrgPOM:
		done, frame, size, err = m.translatePOM(t, v, asid, coreID)
	case OrgTSB:
		done, frame, size, err = m.translateTSB(t, v, asid, coreID)
	default:
		done, frame, size, err = m.translateWalk(t, v, asid, coreID)
	}
	if err != nil {
		return 0, 0, false, err
	}
	m.Stats.TranslateAfterL2Miss.Observe(float64(done - missStart))
	m.installTLBs(coreID, v, asid, frame, size)
	return done, frame + mem.PAddr(mem.PageOffset(v, size)), true, nil
}

// walk demand-maps v's page, then walks the tables for it. Every
// organisation's table walk goes through here, and it is the only place a
// reference takes a first-touch fault (a soft fault whose OS cost is not
// charged, as in the paper's methodology): pages are never unmapped, and
// every TLB, POM-TLB and TSB entry comes from a walk or a prewarm of a
// mapped page, so a reference to an unmapped page misses all of them and
// reaches a walk. TestNoPrewarmGolden pins the resulting fault order.
func (m *memSystem) walk(t uint64, v mem.VAddr, asid mem.ASID, coreID int) (walker.Result, error) {
	if _, _, err := m.vmByASID[asid].ensureMapped(v); err != nil {
		return walker.Result{}, err
	}
	res, err := m.walkers[coreID].Walk(t, v, asid)
	if err != nil {
		return walker.Result{}, err
	}
	m.Stats.PageWalks.Inc()
	return res, nil
}

// translateWalk is the conventional organisation: every L2 TLB miss is a
// full (1-D or 2-D) page walk.
func (m *memSystem) translateWalk(t uint64, v mem.VAddr, asid mem.ASID, coreID int) (uint64, mem.PAddr, mem.PageSize, error) {
	res, err := m.walk(t, v, asid, coreID)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Done, res.Frame, res.Size, nil
}

// translatePOM looks the translation up in the part-of-memory TLB: one
// cacheable access to the POM line (L2 D$ → L3 D$ → die-stacked DRAM),
// falling back to a page walk only on a POM miss (Figure 6's flow).
func (m *memSystem) translatePOM(t uint64, v mem.VAddr, asid mem.ASID, coreID int) (uint64, mem.PAddr, mem.PageSize, error) {
	// Native huge-page systems keep per-size POM entries (as the POM-TLB
	// paper does); both candidate lines are fetched before the tag check.
	multiSize := m.cfg.HugePages && !m.cfg.Virtualized
	line := m.pom.LineAddr(v, asid)
	t = m.Access(t, line, false, cache.Translation, coreID)
	if multiSize {
		line2 := m.pom.LineAddrSized(v, asid, mem.Page2M)
		t = m.Access(t, line2, false, cache.Translation, coreID)
		if frame, size, hit := m.pom.LookupAnySize(v, asid); hit {
			return t, frame, size, nil
		}
	} else if frame, hit := m.pom.Lookup(v, asid); hit {
		return t, frame, mem.Page4K, nil
	}

	res, err := m.walk(t, v, asid, coreID)
	if err != nil {
		return 0, 0, 0, err
	}
	if multiSize && res.Size == mem.Page2M {
		m.pom.InsertSizedAt(res.Done, v, asid, res.Frame, mem.Page2M)
		m.Access(res.Done, m.pom.LineAddrSized(v, asid, mem.Page2M), true, cache.Translation, coreID)
		return res.Done, res.Frame, res.Size, nil
	}
	// Install at 4 KB granularity (the covering chunk of a huge frame).
	frame4k := res.Frame
	if res.Size == mem.Page2M {
		frame4k += mem.PAddr(mem.PageOffset(v, mem.Page2M) &^ (mem.PageSize4K - 1))
	}
	m.pom.InsertAt(res.Done, v, asid, frame4k)
	// The POM line was modified: a posted dirty write into the caches.
	m.Access(res.Done, line, true, cache.Translation, coreID)
	return res.Done, res.Frame, res.Size, nil
}

// translateTSB chases software translation-storage-buffer entries. In a
// virtualized system it takes three cacheable accesses even when
// everything hits — host TSB (to locate the guest TSB line), guest TSB
// (gVA→gPA), host TSB again (gPA→hPA) — which is the multi-lookup cost the
// paper contrasts with POM-TLB's single access (§5.2).
func (m *memSystem) translateTSB(t uint64, v mem.VAddr, asid mem.ASID, coreID int) (uint64, mem.PAddr, mem.PageSize, error) {
	vm := m.vmByASID[asid]
	htsb := m.htsb[asid]

	if !vm.space.Virtualized() {
		// Native: a single software TSB maps VA→PA.
		t = m.Access(t, htsb.EntryAddr(v, asid), false, cache.Translation, coreID)
		if frame, hit := htsb.Lookup(v, asid); hit {
			return t, frame, mem.Page4K, nil
		}
		res, err := m.walk(t, v, asid, coreID)
		if err != nil {
			return 0, 0, 0, err
		}
		htsb.Insert(v, asid, res.Frame)
		m.Access(res.Done, htsb.EntryAddr(v, asid), true, cache.Translation, coreID)
		return res.Done, res.Frame, res.Size, nil
	}

	gtsb := m.gtsb[asid]
	gLine := gtsb.EntryAddr(v, asid)
	// 1) hypervisor-side lookup that resolves the guest TSB line itself.
	t = m.Access(t, htsb.EntryAddr(mem.VAddr(gLine), asid), false, cache.Translation, coreID)
	// 2) the guest TSB entry.
	t = m.Access(t, gLine, false, cache.Translation, coreID)
	if gpaFrame, gHit := gtsb.Lookup(v, asid); gHit {
		// 3) host TSB translates the data gPA.
		hEntry := m.htsb[asid].EntryAddr(mem.VAddr(gpaFrame), asid)
		t = m.Access(t, hEntry, false, cache.Translation, coreID)
		if hpa, hHit := htsb.Lookup(mem.VAddr(gpaFrame), asid); hHit {
			return t, hpa, mem.Page4K, nil
		}
	}
	// Any miss in the chain: fall back to the full 2-D walk, then refill
	// both TSBs.
	res, err := m.walk(t, v, asid, coreID)
	if err != nil {
		return 0, 0, 0, err
	}
	gpaFrame, _, ok := vm.space.Guest.Lookup(v)
	if !ok {
		return 0, 0, 0, fmt.Errorf("sim: TSB refill: %#x unmapped in guest table", v)
	}
	gtsb.Insert(v, asid, gpaFrame)
	htsb.Insert(mem.VAddr(gpaFrame), asid, res.Frame)
	m.Access(res.Done, gLine, true, cache.Translation, coreID)
	m.Access(res.Done, htsb.EntryAddr(mem.VAddr(gpaFrame), asid), true, cache.Translation, coreID)
	return res.Done, res.Frame, res.Size, nil
}

// AccessData implements cpu.DataPath.
func (m *memSystem) AccessData(now uint64, pa mem.PAddr, write bool, coreID int) uint64 {
	return m.Access(now, mem.LineAddr(pa), write, cache.Data, coreID)
}

// pomTLB exposes the POM for results collection (nil unless OrgPOM).
func (m *memSystem) pomTLB() *tlb.POM { return m.pom }

// prewarmTranslation demand-maps v and installs its translation in the
// memory-resident translation structures (POM-TLB, TSBs), without touching
// any hardware TLB or cache state. A page this call maps is installed from
// the frames the mapping step just chose; only an already-mapped page
// costs a table walk.
func (m *memSystem) prewarmTranslation(vm *vmState, v mem.VAddr) error {
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
	return nil
}
