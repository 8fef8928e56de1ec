package sim

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/dram"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/stats"
	"github.com/csalt-sim/csalt/internal/tlb"
	"github.com/csalt-sim/csalt/internal/walker"
)

// Host-physical memory map of the simulated machine.
const (
	hostRAMBase = mem.PAddr(0)
	// Host physical space is generous: huge-page backing of sparse
	// (VA-spread) footprints allocates a 2 MB frame per touched region,
	// and the allocator is only bookkeeping — no simulator memory is
	// committed per frame.
	hostRAMSize = uint64(256) << 30

	pomBase = mem.PAddr(0x20_0000_0000) // POM-TLB region (die-stacked)

	tsbRegionBase   = mem.PAddr(0x28_0000_0000) // software TSBs (DDR4)
	tsbSizePerTable = uint64(8) << 20
)

// memStats collects memory-system-wide counters that do not belong to a
// single component.
type memStats struct {
	L2TLBMisses          stats.Counter
	PageWalks            stats.Counter     // radix-table walks actually performed
	TranslateAfterL2Miss stats.RunningMean // cycles from L2 TLB miss to translation (Table 1's metric)

	L2Occupancy stats.RunningMean // fraction of valid L2 lines holding TLB entries
	L3Occupancy stats.RunningMean

	// Miss penalties beyond L2/L3, per line type — inputs to the
	// CSALT-CD criticality estimate.
	L3MissPenalty [2]stats.RunningMean
}

// memSystem is the full memory hierarchy shared by the cores.
type memSystem struct {
	cfg Config

	l1d   []*cache.Cache
	l2    []*cache.Cache
	l3    *cache.Cache
	l2ctl []*core.Controller
	l3ctl *core.Controller
	l2dip []*core.DIP
	l3dip *core.DIP

	ddr     *dram.DRAM
	stacked *dram.DRAM

	l1tlb  []*tlb.TLB // per core, unified across page sizes here
	l1tlb2 []*tlb.TLB // per core, 2M entries (native huge-page mode)
	l2tlb  []*tlb.TLB

	pom     *tlb.POM
	gtsb    map[mem.ASID]*tlb.TSB // guest TSB (pinned host region per VM)
	htsb    map[mem.ASID]*tlb.TSB
	walkers []*walker.Walker

	vms map[mem.ASID]*vmState
	// vmByASID is the hot-path index over vms: ASIDs are small dense
	// integers, so the per-reference VM resolution in Translate is an array
	// load instead of a map lookup. Maintained by addVM for both engines.
	vmByASID []*vmState

	hostA *mem.FrameAllocator

	l2AccSinceScan uint64
	l3AccSinceScan uint64

	// intro holds the attribution plane's current-accessor registers; nil
	// unless AttachIntrospection was called.
	intro *introspect.Plane

	Stats memStats
}

// newMemSystem wires the hierarchy per cfg. VMs are registered afterwards
// via addVM.
func newMemSystem(cfg Config) (*memSystem, error) {
	m := &memSystem{
		cfg:  cfg,
		vms:  make(map[mem.ASID]*vmState),
		gtsb: make(map[mem.ASID]*tlb.TSB),
		htsb: make(map[mem.ASID]*tlb.TSB),
	}
	m.hostA = mem.NewFrameAllocator(hostRAMBase, hostRAMSize, true)

	var err error
	if m.ddr, err = dram.New(dram.DDR4(cfg.CPUMHz)); err != nil {
		return nil, err
	}
	if m.stacked, err = dram.New(dram.DieStacked(cfg.CPUMHz)); err != nil {
		return nil, err
	}

	profiled := cfg.Scheme == core.Dynamic || cfg.Scheme == core.CriticalityDynamic
	flat := cfg.fastEngine()
	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(cache.Config{
			Name: fmt.Sprintf("l1d%d", i), SizeKB: 32, Ways: 8, Latency: 4,
			Policy: cache.PolicyLRU, Flat: flat,
		})
		if err != nil {
			return nil, err
		}
		m.l1d = append(m.l1d, l1)

		l2, err := cache.New(cache.Config{
			Name: fmt.Sprintf("l2d%d", i), SizeKB: 256, Ways: 4, Latency: 12,
			Policy: cfg.Policy, Profiled: profiled,
			InlineProfiler: cfg.InlineProfiler, ProfilerSampleShift: 3,
			Flat: flat,
		})
		if err != nil {
			return nil, err
		}
		m.l2 = append(m.l2, l2)

		m.l1tlb = append(m.l1tlb, tlb.MustNew(tlb.Config{
			Name: fmt.Sprintf("l1tlb%d", i), Entries: 64, Ways: 4, Latency: 9,
			Flat: flat,
		}))
		m.l1tlb2 = append(m.l1tlb2, tlb.MustNew(tlb.Config{
			Name: fmt.Sprintf("l1tlb2m%d", i), Entries: 32, Ways: 4, Latency: 9,
			Flat: flat,
		}))
		if cfg.SharedL2TLB && i > 0 {
			m.l2tlb = append(m.l2tlb, m.l2tlb[0])
		} else {
			m.l2tlb = append(m.l2tlb, tlb.MustNew(tlb.Config{
				Name: fmt.Sprintf("l2tlb%d", i), Entries: 1536, Ways: 12, Latency: 17,
				Flat: flat,
			}))
		}
	}
	l3, err := cache.New(cache.Config{
		Name: "l3", SizeKB: 8192, Ways: 16, Latency: 42,
		Policy: cfg.Policy, Profiled: profiled,
		InlineProfiler: cfg.InlineProfiler, ProfilerSampleShift: 5,
		Flat: flat,
	})
	if err != nil {
		return nil, err
	}
	m.l3 = l3

	// Partition controllers.
	l2Scheme := cfg.Scheme
	if cfg.L3Only {
		l2Scheme = core.None
	}
	for i := 0; i < cfg.Cores; i++ {
		ctl, err := core.NewController(m.l2[i], core.Config{
			Scheme:        l2Scheme,
			EpochLen:      cfg.EpochLen,
			StaticN:       staticWays(cfg.StaticDataFrac, m.l2[i].Ways()),
			Weights:       &levelWeights{m: m, level: 2},
			RecordHistory: cfg.RecordHistory && i == 0,
		})
		if err != nil {
			return nil, err
		}
		m.l2ctl = append(m.l2ctl, ctl)
	}
	l3ctl, err := core.NewController(m.l3, core.Config{
		Scheme:        cfg.Scheme,
		EpochLen:      cfg.EpochLen,
		StaticN:       staticWays(cfg.StaticDataFrac, m.l3.Ways()),
		Weights:       &levelWeights{m: m, level: 3},
		RecordHistory: cfg.RecordHistory,
	})
	if err != nil {
		return nil, err
	}
	m.l3ctl = l3ctl

	if cfg.DIP {
		for i := 0; i < cfg.Cores; i++ {
			m.l2dip = append(m.l2dip, core.NewDIP())
		}
		m.l3dip = core.NewDIP()
	}

	if cfg.Org == OrgPOM {
		if flat {
			m.pom, err = tlb.NewPOMFlat(pomBase, uint64(cfg.POMSizeMB)<<20)
		} else {
			m.pom, err = tlb.NewPOM(pomBase, uint64(cfg.POMSizeMB)<<20)
		}
		if err != nil {
			return nil, err
		}
	}

	// One walker per core (private MMU), sharing the memory port. The
	// PSC/nested-TLB reach scales with the footprint scale so that
	// page-table pressure matches the paper's platform (see Config).
	wcfg := walker.DefaultConfig()
	wcfg.DisablePSC = cfg.DisablePSC
	if !cfg.NoMMUCacheScaling && cfg.Scale < 1 {
		scaleEntries := func(n int) int {
			m := int(float64(n)*cfg.Scale + 0.5)
			if m < 1 {
				m = 1
			}
			return m
		}
		for i := range wcfg.PSCSizes {
			wcfg.PSCSizes[i] = scaleEntries(wcfg.PSCSizes[i])
		}
		wcfg.NestedEntries = scaleEntries(wcfg.NestedEntries)
	}
	for i := 0; i < cfg.Cores; i++ {
		m.walkers = append(m.walkers, walker.New(&walkerPort{m: m, coreID: i}, wcfg))
	}
	return m, nil
}

// staticWays converts a data fraction to a way count.
func staticWays(frac float64, ways int) int {
	if frac <= 0 {
		frac = 0.5
	}
	n := int(frac*float64(ways) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > ways-1 {
		n = ways - 1
	}
	return n
}

// addVM registers a VM with every core's walker and, under OrgTSB, builds
// its translation storage buffers.
func (m *memSystem) addVM(vm *vmState) error {
	if _, dup := m.vms[vm.asid]; dup {
		return fmt.Errorf("sim: duplicate ASID %d", vm.asid)
	}
	m.vms[vm.asid] = vm
	for int(vm.asid) >= len(m.vmByASID) {
		m.vmByASID = append(m.vmByASID, nil)
	}
	m.vmByASID[vm.asid] = vm
	for _, w := range m.walkers {
		w.Register(vm.asid, vm.space)
	}
	if m.cfg.Org == OrgTSB {
		idx := uint64(len(m.gtsb))
		g, err := tlb.NewTSB(tsbRegionBase+mem.PAddr(idx*2*tsbSizePerTable), tsbSizePerTable)
		if err != nil {
			return err
		}
		h, err := tlb.NewTSB(tsbRegionBase+mem.PAddr((idx*2+1)*tsbSizePerTable), tsbSizePerTable)
		if err != nil {
			return err
		}
		m.gtsb[vm.asid] = g
		m.htsb[vm.asid] = h
	}
	return nil
}

// walkerPort adapts the hierarchy to the walker's MemoryPort, pinning the
// core ID.
type walkerPort struct {
	m      *memSystem
	coreID int
}

func (p *walkerPort) Access(now uint64, addr mem.PAddr, write bool, typ cache.LineType) uint64 {
	return p.m.Access(now, addr, write, typ, p.coreID)
}

// route picks the DRAM device backing an address.
func (m *memSystem) route(addr mem.PAddr) *dram.DRAM {
	if m.pom != nil && m.pom.Contains(addr) && !m.cfg.POMOffChip {
		return m.stacked
	}
	return m.ddr
}

// fillL2 inserts into a private L2 with DIP-aware insertion and routes the
// displaced victim to L3.
//
// The fill helpers use the FillMissed variants: each is only ever called
// from Access after the target cache reported a miss (or MarkDirty found
// nothing), and nothing touches that cache between the probe and the fill —
// lookups and fills in between hit other levels, and victim writebacks only
// flow downward. The absence proof lets the flat layout skip the refresh
// scan; the equivalence suite cross-checks it against the reference engine.
func (m *memSystem) fillL2(coreID int, addr mem.PAddr, typ cache.LineType, dirty bool) {
	l2 := m.l2[coreID]
	var wb cache.Writeback
	if m.l2dip != nil {
		wb = l2.FillAtMissed(addr, typ, dirty, m.l2dip[coreID].Promote(l2.SetIndex(addr)))
	} else {
		wb = l2.FillMissed(addr, typ, dirty)
	}
	if wb.Valid {
		m.writebackToL3(wb)
	}
}

// fillL3 inserts into the shared L3 and posts the victim's writeback to
// DRAM (timing posted; bank occupancy modelled at the requester's clock is
// omitted for victims, a standard simplification).
func (m *memSystem) fillL3(now uint64, addr mem.PAddr, typ cache.LineType, dirty bool) {
	l3 := m.l3
	var wb cache.Writeback
	if m.l3dip != nil {
		wb = l3.FillAtMissed(addr, typ, dirty, m.l3dip.Promote(l3.SetIndex(addr)))
	} else {
		wb = l3.FillMissed(addr, typ, dirty)
	}
	if wb.Valid {
		m.route(wb.Addr).Access(now, wb.Addr, true)
	}
}

// writebackToL3 lands a dirty L2 victim in the L3 (allocate on miss).
func (m *memSystem) writebackToL3(wb cache.Writeback) {
	if m.l3.MarkDirty(wb.Addr) {
		return
	}
	wb2 := m.l3.FillQuietMissed(wb.Addr, wb.Typ, true)
	if wb2.Valid {
		m.route(wb2.Addr).Access(0, wb2.Addr, true)
	}
}

// writebackToL2 lands a dirty L1 victim in its L2.
func (m *memSystem) writebackToL2(coreID int, wb cache.Writeback) {
	l2 := m.l2[coreID]
	if l2.MarkDirty(wb.Addr) {
		return
	}
	wb2 := l2.FillQuietMissed(wb.Addr, wb.Typ, true)
	if wb2.Valid {
		m.writebackToL3(wb2)
	}
}

// fillL1 inserts a data line into a core's L1D.
func (m *memSystem) fillL1(coreID int, addr mem.PAddr, dirty bool) {
	wb := m.l1d[coreID].FillMissed(addr, cache.Data, dirty)
	if wb.Valid {
		m.writebackToL2(coreID, wb)
	}
}

// occupancyTick runs the periodic cache scans behind Figure 3.
func (m *memSystem) occupancyTick() {
	if m.cfg.OccupancyScanEvery == 0 {
		return
	}
	if m.l2AccSinceScan >= m.cfg.OccupancyScanEvery {
		m.l2AccSinceScan = 0
		tlbLines, valid := 0, 0
		for _, l2 := range m.l2 {
			tl, v := l2.Occupancy()
			tlbLines += tl
			valid += v
		}
		if valid > 0 {
			m.Stats.L2Occupancy.Observe(float64(tlbLines) / float64(valid))
		}
	}
	if m.l3AccSinceScan >= m.cfg.OccupancyScanEvery {
		m.l3AccSinceScan = 0
		if tl, v := m.l3.Occupancy(); v > 0 {
			m.Stats.L3Occupancy.Observe(float64(tl) / float64(v))
		}
	}
}

// Access sends one line-sized reference through the hierarchy and returns
// its completion time. Data references probe L1D; translation references
// (POM lines, TSB lines, PTE lines) enter at the L2, the level the paper's
// schemes manage.
func (m *memSystem) Access(now uint64, addr mem.PAddr, write bool, typ cache.LineType, coreID int) uint64 {
	if m.intro != nil {
		m.intro.SetAccess(coreID, typ == cache.Translation)
	}
	t := now
	if typ == cache.Data {
		l1 := m.l1d[coreID]
		if l1.Lookup(addr, typ, write) {
			return t + l1.Latency()
		}
		t += l1.Latency()
	}

	l2 := m.l2[coreID]
	m.l2ctl[coreID].OnAccess()
	m.l2AccSinceScan++
	hit := l2.Lookup(addr, typ, write)
	t += l2.Latency()
	if hit {
		if typ == cache.Data {
			m.fillL1(coreID, addr, write)
		}
		m.occupancyTick()
		return t
	}
	if m.l2dip != nil {
		m.l2dip[coreID].OnMiss(l2.SetIndex(addr))
	}

	m.l3ctl.OnAccess()
	m.l3AccSinceScan++
	hit = m.l3.Lookup(addr, typ, write)
	t += m.l3.Latency()
	if hit {
		m.fillL2(coreID, addr, typ, write)
		if typ == cache.Data {
			m.fillL1(coreID, addr, write)
		}
		m.occupancyTick()
		return t
	}
	if m.l3dip != nil {
		m.l3dip.OnMiss(m.l3.SetIndex(addr))
	}

	done := m.route(addr).Access(t, addr, false)
	m.Stats.L3MissPenalty[typ].Observe(float64(done - t))
	m.fillL3(done, addr, typ, write)
	m.fillL2(coreID, addr, typ, write)
	if typ == cache.Data {
		m.fillL1(coreID, addr, write)
	}
	m.occupancyTick()
	return done
}

// levelWeights implements core.WeightSource for CSALT-CD (§3.2): the
// criticality of a hit is the ratio of the cost a miss would incur to the
// cost of the hit itself, estimated from live performance counters.
type levelWeights struct {
	m     *memSystem
	level int // 2 or 3
}

// Weights returns (SDat, STr).
func (w *levelWeights) Weights() (float64, float64) {
	m := w.m
	dramLat := m.Stats.L3MissPenalty[cache.Data].Mean()
	if dramLat <= 0 {
		dramLat = float64(m.ddr.RowConflictLatency())
	}
	// "TLB latency": the cost of fetching a translation line from beyond
	// the caches (POM access in die-stacked DRAM), plus the residual walk
	// cost weighted by the POM miss rate.
	tlbLat := m.Stats.L3MissPenalty[cache.Translation].Mean()
	if tlbLat <= 0 {
		tlbLat = float64(m.stacked.RowConflictLatency())
	}
	var walkTail float64
	if m.pom != nil && m.pom.Accesses.Accesses() > 0 {
		var walkMean float64
		for _, wk := range m.walkers {
			walkMean += wk.Stats.WalkCycles.Mean()
		}
		walkMean /= float64(len(m.walkers))
		walkTail = m.pom.Accesses.MissRate() * walkMean
	}

	switch w.level {
	case 3:
		l3 := float64(m.l3.Latency())
		return dramLat / l3, (tlbLat + dramLat + walkTail) / l3
	default:
		l2 := float64(m.l2[0].Latency())
		l3Lat := float64(m.l3.Latency())
		dMissFrac := m.l3.Stats.ByType[cache.Data].MissRate()
		tMissFrac := m.l3.Stats.ByType[cache.Translation].MissRate()
		sDat := (l3Lat + dMissFrac*dramLat) / l2
		sTr := (l3Lat + tMissFrac*(tlbLat+dramLat+walkTail)) / l2
		return sDat, sTr
	}
}

// resetStats clears every measured counter at the warmup boundary, leaving
// all microarchitectural state (cache contents, TLBs, partitions) warm.
func (m *memSystem) resetStats() {
	for i := range m.l1d {
		m.l1d[i].ResetStats()
		m.l2[i].ResetStats()
		m.l1tlb[i].ResetStats()
		m.l1tlb2[i].ResetStats()
		m.l2tlb[i].ResetStats()
		m.walkers[i].Stats = walker.Stats{}
	}
	m.l3.ResetStats()
	m.ddr.Stats = dram.Stats{}
	m.stacked.Stats = dram.Stats{}
	if m.pom != nil {
		m.pom.ResetStats()
	}
	for _, t := range m.gtsb {
		t.ResetStats()
	}
	for _, t := range m.htsb {
		t.ResetStats()
	}
	m.Stats = memStats{}
}
