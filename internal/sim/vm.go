package sim

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/pagetable"
	"github.com/csalt-sim/csalt/internal/walker"
	"github.com/csalt-sim/csalt/internal/workload"
)

// eptBackedAlloc wraps a guest-physical frame allocator so that every frame
// it hands out (used for guest page-table nodes) is immediately EPT-mapped
// to a host frame — guest page tables live in guest memory, and the nested
// walker must be able to resolve their gPAs.
type eptBackedAlloc struct {
	inner *mem.FrameAllocator
	host  *pagetable.Table
	hostA *mem.FrameAllocator
}

func (a *eptBackedAlloc) Alloc4K() (mem.PAddr, error) {
	gpa, err := a.inner.Alloc4K()
	if err != nil {
		return 0, err
	}
	hpa, err := a.hostA.Alloc4K()
	if err != nil {
		return 0, err
	}
	if err := a.host.Map(mem.VAddr(gpa), hpa, mem.Page4K); err != nil {
		return 0, fmt.Errorf("sim: EPT-mapping guest PT frame %#x: %w", gpa, err)
	}
	return gpa, nil
}

// vmState is one virtual machine: an ASID, its translation tables, and the
// allocators that demand-populate them.
type vmState struct {
	asid  mem.ASID
	bench workload.Name
	space *walker.Space

	hostA     *mem.FrameAllocator // shared host-physical allocator
	gDataA    *mem.FrameAllocator // guest-physical data region (virtualized only)
	hugePages bool
	ept4K     bool // fragmented host: 4 KB EPT mappings

	touchedPages uint64
}

// newVM builds one VM's address-translation state. For a virtualized VM the
// guest table maps gVA→gPA and a host (EPT) table maps gPA→hPA; a native VM
// maps gVA straight to host frames.
func newVM(asid mem.ASID, bench workload.Name, virtualized bool, levels int,
	hostA *mem.FrameAllocator, hugePages, ept4K bool) (*vmState, error) {

	vm := &vmState{asid: asid, bench: bench, hostA: hostA, hugePages: hugePages, ept4K: ept4K}
	if !virtualized {
		guest, err := pagetable.New(hostA, levels)
		if err != nil {
			return nil, err
		}
		vm.space = &walker.Space{Guest: guest}
		return vm, nil
	}

	host, err := pagetable.New(hostA, levels)
	if err != nil {
		return nil, err
	}
	// Guest-physical layout: page-table nodes in a dedicated upper region,
	// data below. Both regions are per-VM; gPA spaces of different VMs are
	// independent because each has its own EPT.
	const (
		gDataBase = mem.PAddr(0)
		gDataSize = 2 << 30 // 2 GB of guest-physical data space
		gPTBase   = mem.PAddr(2 << 30)
		gPTSize   = 512 << 20
	)
	// Guest-physical data is allocated sequentially: guest OSes hand out
	// reasonably contiguous gPA ranges, and that contiguity is what gives
	// the host-side PSC and nested TLB their reach. (Host-physical frames
	// remain scrambled — see newMemSystem — which is what spreads cache
	// sets.)
	vm.gDataA = mem.NewFrameAllocator(gDataBase, gDataSize, false)
	gptInner := mem.NewFrameAllocator(gPTBase, gPTSize, false)
	guest, err := pagetable.New(&eptBackedAlloc{inner: gptInner, host: host, hostA: hostA}, levels)
	if err != nil {
		return nil, err
	}
	vm.space = &walker.Space{Guest: guest, Host: host}
	return vm, nil
}

// pageMapping is the translation of one 4 KB page: the guest leaf that
// maps it (frame and size, in the guest table's output domain — gPA for a
// virtualized VM, hPA for a native one) and the host-physical frame
// backing the page itself.
type pageMapping struct {
	leaf mem.PAddr
	size mem.PageSize
	hpa  mem.PAddr
}

// guestPage returns v's 4 KB page in the guest table's output domain.
func (pm pageMapping) guestPage(v mem.VAddr) mem.PAddr {
	return pm.leaf + mem.PAddr(mem.PageOffset(v, pm.size)&^(mem.PageSize4K-1))
}

// ensureMapped demand-populates the translation for v's page on first
// touch: a soft page fault whose OS cost, like the paper's, is not charged
// to the pipeline. Returns true if a new page was mapped, with the mapping
// it installed; an already-mapped page returns false and a zero mapping
// (resolve walks the tables for it). It runs in memSystem.walk, just
// before every table walk, and at set-up for prewarm and fault-log replay;
// both engines share this one mapping path.
func (vm *vmState) ensureMapped(v mem.VAddr) (pageMapping, bool, error) {
	if _, _, ok := vm.space.Guest.Lookup(v); ok {
		return pageMapping{}, false, nil
	}
	if !vm.space.Virtualized() {
		if vm.hugePages {
			base := v &^ (mem.PageSize2M - 1)
			hpa, err := vm.hostA.Alloc2M()
			if err != nil {
				return pageMapping{}, false, err
			}
			if err := vm.space.Guest.Map(base, hpa, mem.Page2M); err != nil {
				return pageMapping{}, false, err
			}
			vm.touchedPages += mem.PageSize2M / mem.PageSize4K
			pm := pageMapping{leaf: hpa, size: mem.Page2M}
			pm.hpa = pm.guestPage(v)
			return pm, true, nil
		}
		hpa, err := vm.hostA.Alloc4K()
		if err != nil {
			return pageMapping{}, false, err
		}
		if err := vm.space.Guest.Map(v&^(mem.PageSize4K-1), hpa, mem.Page4K); err != nil {
			return pageMapping{}, false, err
		}
		vm.touchedPages++
		return pageMapping{leaf: hpa, size: mem.Page4K, hpa: hpa}, true, nil
	}

	page := v &^ (mem.PageSize4K - 1)
	gpa, err := vm.gDataA.Alloc4K()
	if err != nil {
		return pageMapping{}, false, err
	}
	if err := vm.space.Guest.Map(page, gpa, mem.Page4K); err != nil {
		return pageMapping{}, false, err
	}
	// The hypervisor backs guest-physical data with 2 MB EPT mappings, as
	// KVM with THP does: host frames are carved per 2 MB gPA region on
	// first touch. This is what gives the nested TLB and host-side PSCs
	// their reach — and what the paper's near-native virtualized walk
	// costs for well-behaved workloads (Table 1) depend on.
	if vm.ept4K {
		hpa, err := vm.hostA.Alloc4K()
		if err != nil {
			return pageMapping{}, false, err
		}
		if err := vm.space.Host.Map(mem.VAddr(gpa), hpa, mem.Page4K); err != nil {
			return pageMapping{}, false, err
		}
		vm.touchedPages++
		return pageMapping{leaf: gpa, size: mem.Page4K, hpa: hpa}, true, nil
	}
	region := mem.VAddr(gpa) &^ (mem.PageSize2M - 1)
	hRegion, _, ok := vm.space.Host.Lookup(region)
	if !ok {
		if hRegion, err = vm.hostA.Alloc2M(); err != nil {
			return pageMapping{}, false, err
		}
		if err := vm.space.Host.Map(region, hRegion, mem.Page2M); err != nil {
			return pageMapping{}, false, err
		}
	}
	vm.touchedPages++
	return pageMapping{leaf: gpa, size: mem.Page4K, hpa: hRegion + (gpa - mem.PAddr(region))}, true, nil
}

// resolve walks the tables for an already-mapped page.
func (vm *vmState) resolve(v mem.VAddr) (pageMapping, error) {
	leaf, size, ok := vm.space.Guest.Lookup(v)
	if !ok {
		return pageMapping{}, fmt.Errorf("sim: %#x unmapped in guest table", v)
	}
	pm := pageMapping{leaf: leaf, size: size}
	page := pm.guestPage(v)
	pm.hpa = page
	if vm.space.Virtualized() {
		if pm.hpa, ok = vm.space.Host.Translate(mem.VAddr(page)); !ok {
			return pageMapping{}, fmt.Errorf("sim: gPA %#x unmapped in host table", page)
		}
	}
	return pm, nil
}
