package sim

import (
	"errors"
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/stats"
	"github.com/csalt-sim/csalt/internal/trace"
	"github.com/csalt-sim/csalt/internal/workload"
)

// The snapshot plane: durable mid-run checkpoints with byte-identical
// resume (see ROBUSTNESS.md, "Mid-run snapshots").
//
// A snapshot is taken at a run-loop poll boundary (every checkEvery steps),
// which is schedule-safe by construction: the boundary sits at the top of
// the batch loop, before the next Step, at a point where the batched core
// is still the min-clock pick over all cores — the batch goes on only
// while its core's clock stays below the runner-up's (or level with it at
// a lower index). The snapshot holds no schedule state: the clock array
// and the warm-up count are rebuilt from the cores at every entry to
// RunContext. A restored run therefore re-enters RunContext, rebuilds
// them, and picks the same core the interrupted run was about to step.
//
// Restore is reconstruction plus overlay. sim.New is deterministic given
// the Config (prewarm order, allocator layout, POM/TSB placement), so
// RestoreSystem rebuilds the machine from scratch, replays the ordered
// demand-fault log through the VM mapping path — reproducing the shared
// frame allocator's sequence and the page-table contents exactly —
// verifies the allocator and footprint counts against the snapshot, then
// overlays every component's serialized state. The config key carried in
// the snapshot's Meta pins engine and configuration, so a snapshot only
// ever restores into the machine that wrote it.

// ErrSnapshotStop reports that a run stopped cooperatively at a poll
// boundary after writing a requested drain snapshot (RequestSnapshotStop).
// The run is incomplete by design: a later process restores the snapshot
// and runs to completion. Callers treat it like cancellation, not failure.
var ErrSnapshotStop = errors.New("sim: run stopped at drain snapshot")

// SnapshotSink receives the run loop's periodic snapshots. The sink owns
// durability policy: it wraps the state in a Meta (key, sequence number),
// writes it atomically, and decides whether a write failure should abort
// the run (returning the error) or degrade to checkpoint-free operation
// (returning nil).
type SnapshotSink interface {
	// WriteSnapshot persists one snapshot. steps is the total memory
	// references retired so far across all cores, for the Meta.
	WriteSnapshot(st *snapshot.State, steps uint64) error
}

// defaultSnapshotEvery is the snapshot cadence in simulation steps when
// EnableSnapshots is called with zero.
const defaultSnapshotEvery = 1 << 20

// EnableSnapshots arms the snapshot plane: the run loop writes a snapshot
// to sink roughly every everySteps steps (rounded up to the poll cadence;
// 0 selects a default), and the demand-fault log starts recording so those
// snapshots are restorable. Call after New (or RestoreSystem) and before
// Run. Snapshots are incompatible with an attached introspection plane —
// Snapshot returns an error rather than silently dropping its state.
func (s *System) EnableSnapshots(sink SnapshotSink, everySteps uint64) {
	s.snapSink = sink
	if everySteps == 0 {
		everySteps = defaultSnapshotEvery
	}
	s.snapEvery = everySteps
	s.mem.faultLogOn = true
}

// RequestSnapshotStop asks a running simulation to write one final
// snapshot at the next poll boundary and return ErrSnapshotStop. Safe to
// call from any goroutine (SIGTERM drain handlers call it mid-run). A
// system without an armed snapshot sink ignores the request.
func (s *System) RequestSnapshotStop() { s.snapStop.Store(true) }

// totalSteps is the Meta.Steps value: memory references retired so far.
func (s *System) totalSteps() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Stats.MemRefs.Value()
	}
	return n
}

// writeSnapshot captures and hands one snapshot to the sink.
func (s *System) writeSnapshot() error {
	st, err := s.Snapshot()
	if err != nil {
		return err
	}
	return s.snapSink.WriteSnapshot(st, s.totalSteps())
}

// Snapshot captures the complete mutable simulator state at the current
// step. It must only be called at a poll boundary (the run loop does) or
// while the system is not running; the capture itself mutates nothing.
func (s *System) Snapshot() (*snapshot.State, error) {
	if s.intro != nil {
		return nil, fmt.Errorf("sim: snapshots do not cover the introspection plane; run without -introspect or without snapshots")
	}
	m := s.mem
	st := &snapshot.State{
		Warmed:        s.warmed,
		SinceSample:   s.sinceSample,
		SampleSeq:     s.sampleSeq,
		SampleBase:    saveSampleBase(s.sampleBase),
		Faults:        append([]snapshot.Fault(nil), m.faultLog...),
		HostAllocated: m.hostA.Allocated(),
	}
	st.Snaps = make([]snapshot.CoreSnap, len(s.snaps))
	for i, sn := range s.snaps {
		st.Snaps[i] = snapshot.CoreSnap{Instructions: sn.instructions, Cycles: sn.cycles}
	}
	for _, vm := range s.vms {
		st.VMs = append(st.VMs, snapshot.VMState{ASID: uint16(vm.asid), TouchedPages: vm.touchedPages})
	}
	for i, c := range s.cores {
		cs := c.SaveState()
		for j := 0; j < c.NumContexts(); j++ {
			ss, err := saveSource(c.SourceAt(j))
			if err != nil {
				return nil, fmt.Errorf("sim: core %d context %d: %w", i, j, err)
			}
			cs.Sources = append(cs.Sources, ss)
		}
		st.Cores = append(st.Cores, cs)
	}
	st.Mem = m.saveState()
	return st, nil
}

// RestoreSystem rebuilds a system from cfg and overlays a snapshot taken
// by a system of the same configuration, leaving it ready to RunContext to
// completion with byte-identical results to the uninterrupted run. The
// caller is responsible for having matched the snapshot's config key to
// cfg before calling.
func RestoreSystem(cfg Config, st *snapshot.State) (*System, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.overlay(st); err != nil {
		return nil, fmt.Errorf("sim: restoring snapshot: %w", err)
	}
	return s, nil
}

// overlay replays the fault log and installs every serialized component
// state. Any mismatch — a fault that was already mapped, an allocator or
// footprint count off by one, a slice of the wrong geometry — fails the
// restore; callers treat that like corruption and fall back to a fresh run.
func (s *System) overlay(st *snapshot.State) error {
	m := s.mem

	// 1) Replay the demand-fault log: reproduces frame-allocator order,
	// page tables and EPT contents.
	for i, f := range st.Faults {
		var vm *vmState
		if int(f.ASID) < len(m.vmByASID) {
			vm = m.vmByASID[f.ASID]
		}
		if vm == nil {
			return fmt.Errorf("fault %d names unknown ASID %d", i, f.ASID)
		}
		_, created, err := vm.ensureMapped(mem.VAddr(f.Addr))
		if err != nil {
			return fmt.Errorf("replaying fault %d (asid %d, %#x): %w", i, f.ASID, f.Addr, err)
		}
		if !created {
			return fmt.Errorf("fault %d (asid %d, %#x) was already mapped; snapshot does not match this configuration", i, f.ASID, f.Addr)
		}
	}
	// 2) Verify reconstruction against the capture-time witnesses.
	if got := m.hostA.Allocated(); got != st.HostAllocated {
		return fmt.Errorf("host allocator at %d 4K-frame units after replay, snapshot recorded %d", got, st.HostAllocated)
	}
	if len(st.VMs) != len(s.vms) {
		return fmt.Errorf("snapshot has %d VMs, system has %d", len(st.VMs), len(s.vms))
	}
	for i, vs := range st.VMs {
		vm := s.vms[i]
		if uint16(vm.asid) != vs.ASID {
			return fmt.Errorf("VM %d has ASID %d, snapshot recorded %d", i, vm.asid, vs.ASID)
		}
		if vm.touchedPages != vs.TouchedPages {
			return fmt.Errorf("VM %d touched %d pages after replay, snapshot recorded %d", i, vm.touchedPages, vs.TouchedPages)
		}
	}
	// The restored system's own snapshots must carry the full fault history.
	m.faultLog = append([]snapshot.Fault(nil), st.Faults...)

	// 3) Overlay cores and their trace sources.
	if len(st.Cores) != len(s.cores) {
		return fmt.Errorf("snapshot has %d cores, system has %d", len(st.Cores), len(s.cores))
	}
	for i, cs := range st.Cores {
		c := s.cores[i]
		if err := c.LoadState(cs); err != nil {
			return err
		}
		if len(cs.Sources) != c.NumContexts() {
			return fmt.Errorf("core %d snapshot has %d sources, want %d", i, len(cs.Sources), c.NumContexts())
		}
		for j, ss := range cs.Sources {
			if err := loadSource(c.SourceAt(j), ss); err != nil {
				return fmt.Errorf("core %d context %d: %w", i, j, err)
			}
		}
	}

	// 4) Run-loop bookkeeping: warmup boundary, measurement baselines,
	// sampler cursors.
	s.warmed = st.Warmed
	if len(st.Snaps) != len(s.cores) && len(st.Snaps) != 0 {
		return fmt.Errorf("snapshot has %d core baselines, want %d", len(st.Snaps), len(s.cores))
	}
	s.snaps = make([]coreSnap, len(st.Snaps))
	for i, sn := range st.Snaps {
		s.snaps[i] = coreSnap{instructions: sn.Instructions, cycles: sn.Cycles}
	}
	s.sinceSample = st.SinceSample
	s.sampleSeq = st.SampleSeq
	s.sampleBase = loadSampleBase(st.SampleBase)
	s.restoredBase = true

	// 5) Overlay the memory hierarchy.
	return m.loadState(&st.Mem)
}

// saveSource serializes one context's trace source.
func saveSource(src trace.Source) (snapshot.SourceState, error) {
	switch v := src.(type) {
	case workload.StatefulSource:
		gs := v.SaveState()
		return snapshot.SourceState{Gen: &gs}, nil
	case *trace.Replay:
		pos := v.Pos()
		return snapshot.SourceState{ReplayPos: &pos}, nil
	default:
		return snapshot.SourceState{}, fmt.Errorf("trace source %T is not snapshottable", src)
	}
}

// loadSource restores one context's trace source cursor.
func loadSource(src trace.Source, ss snapshot.SourceState) error {
	switch v := src.(type) {
	case workload.StatefulSource:
		if ss.Gen == nil {
			return fmt.Errorf("snapshot source state has no generator cursor for %T", src)
		}
		return v.LoadState(*ss.Gen)
	case *trace.Replay:
		if ss.ReplayPos == nil {
			return fmt.Errorf("snapshot source state has no replay position for %T", src)
		}
		return v.SetPos(*ss.ReplayPos)
	default:
		return fmt.Errorf("trace source %T is not snapshottable", src)
	}
}

func saveSampleBase(b sampleBase) snapshot.SampleBase {
	return snapshot.SampleBase{
		Instructions:    b.instructions,
		Cycle:           b.cycle,
		L1TLBMisses:     b.l1TLBMisses,
		L2TLBMisses:     b.l2TLBMisses,
		POMHits:         b.pomHits,
		POMAccesses:     b.pomAccesses,
		PageWalks:       b.pageWalks,
		ContextSwitches: b.contextSwitches,
		QueueWaitSum:    b.queueWaitSum,
		QueueWaitN:      b.queueWaitN,
		SwitchMisses:    b.switchMisses,
		CrossEvictions:  b.crossEvictions,
		PhaseBoundaries: b.phaseBoundaries,
	}
}

func loadSampleBase(b snapshot.SampleBase) sampleBase {
	return sampleBase{
		instructions:    b.Instructions,
		cycle:           b.Cycle,
		l1TLBMisses:     b.L1TLBMisses,
		l2TLBMisses:     b.L2TLBMisses,
		pomHits:         b.POMHits,
		pomAccesses:     b.POMAccesses,
		pageWalks:       b.PageWalks,
		contextSwitches: b.ContextSwitches,
		queueWaitSum:    b.QueueWaitSum,
		queueWaitN:      b.QueueWaitN,
		switchMisses:    b.SwitchMisses,
		crossEvictions:  b.CrossEvictions,
		phaseBoundaries: b.PhaseBoundaries,
	}
}

// saveState captures the memory hierarchy. The L2 TLB slice collapses to a
// single element when shared (per-core slots alias one structure); the TSB
// maps serialize sorted by ASID for deterministic encoding.
func (m *memSystem) saveState() snapshot.MemState {
	st := snapshot.MemState{
		L3:             m.l3.SaveState(),
		DDR:            m.ddr.SaveState(),
		Stacked:        m.stacked.SaveState(),
		L2AccSinceScan: m.l2AccSinceScan,
		L3AccSinceScan: m.l3AccSinceScan,
	}
	for i := range m.l1d {
		st.L1D = append(st.L1D, m.l1d[i].SaveState())
		st.L2 = append(st.L2, m.l2[i].SaveState())
		st.L1TLB = append(st.L1TLB, m.l1tlb[i].SaveState())
		st.L1TLB2 = append(st.L1TLB2, m.l1tlb2[i].SaveState())
	}
	nL2TLB := len(m.l2tlb)
	if m.cfg.SharedL2TLB {
		nL2TLB = 1
	}
	for i := 0; i < nL2TLB; i++ {
		st.L2TLB = append(st.L2TLB, m.l2tlb[i].SaveState())
	}
	for _, ctl := range m.l2ctl {
		cs := ctl.SaveState()
		st.L2Ctl = append(st.L2Ctl, &cs)
	}
	l3cs := m.l3ctl.SaveState()
	st.L3Ctl = &l3cs
	for _, d := range m.l2dip {
		ds := d.SaveState()
		st.L2DIP = append(st.L2DIP, &ds)
	}
	if m.l3dip != nil {
		ds := m.l3dip.SaveState()
		st.L3DIP = &ds
	}
	if m.pom != nil {
		ps := m.pom.SaveState()
		st.POM = &ps
	}
	for _, a := range sortedASIDs(m) {
		if t := m.gtsb[a]; t != nil {
			ts := t.SaveState()
			ts.ASID = uint16(a)
			st.GTSB = append(st.GTSB, ts)
		}
		if t := m.htsb[a]; t != nil {
			ts := t.SaveState()
			ts.ASID = uint16(a)
			st.HTSB = append(st.HTSB, ts)
		}
	}
	for _, w := range m.walkers {
		st.Walkers = append(st.Walkers, w.SaveState())
	}
	st.Stats = saveMemStats(&m.Stats)
	return st
}

// loadState overlays the memory hierarchy from a same-configuration
// snapshot, validating geometry at every level.
func (m *memSystem) loadState(st *snapshot.MemState) error {
	if len(st.L1D) != len(m.l1d) || len(st.L2) != len(m.l2) ||
		len(st.L1TLB) != len(m.l1tlb) || len(st.L1TLB2) != len(m.l1tlb2) ||
		len(st.Walkers) != len(m.walkers) {
		return fmt.Errorf("snapshot core count does not match %d-core system", len(m.l1d))
	}
	for i := range m.l1d {
		if err := m.l1d[i].LoadState(st.L1D[i]); err != nil {
			return err
		}
		if err := m.l2[i].LoadState(st.L2[i]); err != nil {
			return err
		}
		if err := m.l1tlb[i].LoadState(st.L1TLB[i]); err != nil {
			return err
		}
		if err := m.l1tlb2[i].LoadState(st.L1TLB2[i]); err != nil {
			return err
		}
		if err := m.walkers[i].LoadState(st.Walkers[i]); err != nil {
			return err
		}
	}
	if err := m.l3.LoadState(st.L3); err != nil {
		return err
	}
	nL2TLB := len(m.l2tlb)
	if m.cfg.SharedL2TLB {
		nL2TLB = 1
	}
	if len(st.L2TLB) != nL2TLB {
		return fmt.Errorf("snapshot has %d L2 TLBs, want %d", len(st.L2TLB), nL2TLB)
	}
	for i := 0; i < nL2TLB; i++ {
		if err := m.l2tlb[i].LoadState(st.L2TLB[i]); err != nil {
			return err
		}
	}
	if len(st.L2Ctl) != len(m.l2ctl) {
		return fmt.Errorf("snapshot has %d L2 controllers, want %d", len(st.L2Ctl), len(m.l2ctl))
	}
	for i, cs := range st.L2Ctl {
		if cs == nil {
			return fmt.Errorf("snapshot L2 controller %d is nil", i)
		}
		m.l2ctl[i].LoadState(*cs)
	}
	if st.L3Ctl == nil {
		return fmt.Errorf("snapshot has no L3 controller state")
	}
	m.l3ctl.LoadState(*st.L3Ctl)
	if len(st.L2DIP) != len(m.l2dip) {
		return fmt.Errorf("snapshot has %d L2 DIP monitors, want %d", len(st.L2DIP), len(m.l2dip))
	}
	for i, ds := range st.L2DIP {
		if ds == nil {
			return fmt.Errorf("snapshot L2 DIP %d is nil", i)
		}
		m.l2dip[i].LoadState(*ds)
	}
	if (st.L3DIP != nil) != (m.l3dip != nil) {
		return fmt.Errorf("snapshot L3 DIP presence does not match configuration")
	}
	if m.l3dip != nil {
		m.l3dip.LoadState(*st.L3DIP)
	}
	if err := m.ddr.LoadState(st.DDR); err != nil {
		return err
	}
	if err := m.stacked.LoadState(st.Stacked); err != nil {
		return err
	}
	if (st.POM != nil) != (m.pom != nil) {
		return fmt.Errorf("snapshot POM presence does not match configuration")
	}
	if m.pom != nil {
		if err := m.pom.LoadState(*st.POM); err != nil {
			return err
		}
	}
	if len(st.GTSB) != len(m.gtsb) || len(st.HTSB) != len(m.htsb) {
		return fmt.Errorf("snapshot has %d/%d TSBs, want %d/%d",
			len(st.GTSB), len(st.HTSB), len(m.gtsb), len(m.htsb))
	}
	for _, ts := range st.GTSB {
		t := m.gtsb[mem.ASID(ts.ASID)]
		if t == nil {
			return fmt.Errorf("snapshot guest TSB names unknown ASID %d", ts.ASID)
		}
		if err := t.LoadState(ts); err != nil {
			return err
		}
	}
	for _, ts := range st.HTSB {
		t := m.htsb[mem.ASID(ts.ASID)]
		if t == nil {
			return fmt.Errorf("snapshot host TSB names unknown ASID %d", ts.ASID)
		}
		if err := t.LoadState(ts); err != nil {
			return err
		}
	}
	m.l2AccSinceScan = st.L2AccSinceScan
	m.l3AccSinceScan = st.L3AccSinceScan
	loadMemStats(&m.Stats, &st.Stats)
	return nil
}

func saveMemStats(s *memStats) snapshot.MemStats {
	st := snapshot.MemStats{
		L2TLBMisses: s.L2TLBMisses.Value(),
		PageWalks:   s.PageWalks.Value(),
	}
	n, sum := s.TranslateAfterL2Miss.State()
	st.TranslateAfterL2Miss = snapshot.Mean{N: n, Sum: sum}
	n, sum = s.L2Occupancy.State()
	st.L2Occupancy = snapshot.Mean{N: n, Sum: sum}
	n, sum = s.L3Occupancy.State()
	st.L3Occupancy = snapshot.Mean{N: n, Sum: sum}
	for i := range s.L3MissPenalty {
		n, sum = s.L3MissPenalty[i].State()
		st.L3MissPenalty[i] = snapshot.Mean{N: n, Sum: sum}
	}
	return st
}

func loadMemStats(s *memStats, st *snapshot.MemStats) {
	s.L2TLBMisses = stats.Counter(st.L2TLBMisses)
	s.PageWalks = stats.Counter(st.PageWalks)
	s.TranslateAfterL2Miss.SetState(st.TranslateAfterL2Miss.N, st.TranslateAfterL2Miss.Sum)
	s.L2Occupancy.SetState(st.L2Occupancy.N, st.L2Occupancy.Sum)
	s.L3Occupancy.SetState(st.L3Occupancy.N, st.L3Occupancy.Sum)
	for i := range s.L3MissPenalty {
		s.L3MissPenalty[i].SetState(st.L3MissPenalty[i].N, st.L3MissPenalty[i].Sum)
	}
}
