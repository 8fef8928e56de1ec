// Package introspect is the simulator's cycle- and miss-attribution
// plane: an opt-in layer that classifies every stall cycle and every
// TLB/POM/cache miss by cause, keeps a per-context-switch damage ledger,
// accumulates per-set occupancy/contention heatmaps, and runs an online
// phase detector over windowed IPC/MPKI.
//
// The plane follows the observer contract of package obs: every
// component holds a nil-able concrete probe pointer, every hook is a
// method that no-ops on a nil receiver, and an unattached simulation is
// byte-identical — same metrics digest, same Results — to one that never
// imported this package. Attribution is strictly read-only: probes mirror
// the structures they watch (ownership maps, a same-capacity
// fully-associative shadow LRU, generation stamps) but never feed a
// decision back into the model, so fast- and reference-engine runs
// produce byte-identical ledgers because the hook sites live in shared
// wrapper code with identical decoded values.
//
// Attribution observes post-attach events only: entries installed before
// AttachIntrospection (construction-time prewarm) have unknown owners, so
// their first observed miss classifies as compulsory and their eviction
// is never counted as cross-ASID damage.
package introspect

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/obs"
)

// Cause classifies one miss (or one translate-stall interval, which
// inherits the cause of the L2 TLB miss that produced it).
type Cause uint8

// The miss-cause taxonomy. Classification order is fixed: a key never
// observed before is compulsory; a key whose last eviction was performed
// on behalf of a different address space is switch-induced (the
// context-switch cold-refill class CSALT targets); otherwise the
// same-capacity fully-associative shadow LRU splits conflict (the shadow
// still holds the key — only placement lost it) from capacity (the
// working set genuinely outgrew the structure).
const (
	Compulsory Cause = iota
	SwitchInduced
	Conflict
	Capacity
	numCauses
)

// NumCauses is the number of miss causes.
const NumCauses = int(numCauses)

// String returns the cause's wire name, used in report JSON keys and
// registry metric labels.
func (c Cause) String() string {
	switch c {
	case Compulsory:
		return "compulsory"
	case SwitchInduced:
		return "switch_induced"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	default:
		return "unknown"
	}
}

// Config sizes the plane.
type Config struct {
	// Cores is the number of simulated cores (required).
	Cores int
	// LedgerCap bounds the retained closed switch records; damage beyond
	// the cap folds into the running totals and a dropped counter.
	// Defaults to 4096.
	LedgerCap int
	// PhaseEveryRefs is the phase-detector window length in simulated
	// references. Defaults to 2048.
	PhaseEveryRefs uint64
	// PhaseThreshold is the relative IPC or MPKI change that opens a new
	// phase. Defaults to 0.25.
	PhaseThreshold float64
}

// coreAttr is one core's cycle-attribution buckets. The buckets cover
// every cycle-advance site in cpu.Core, so their sum equals the core's
// cycle counter exactly (the conservation law the invariant layer arms).
// Unlike miss counters these are never reset at the warmup boundary —
// the core cycle clock they must sum to is monotone.
type coreAttr struct {
	compute   uint64
	translate [NumCauses]uint64
	data      uint64
	drain     uint64
}

// Plane is the attached attribution plane of one simulated system. Like
// the simulator itself it is single-goroutine: probes share the plane's
// current-accessor registers without synchronisation.
type Plane struct {
	cfg Config
	tr  *obs.Tracer

	// Current-accessor registers, written by the memory system at
	// Translate/Access entry so structure probes deep in the hierarchy
	// know which core (and access class) is driving them.
	curCore  int
	curClass int // 0 data, 1 translation

	cores   []coreAttr
	curASID []uint64
	cause   []Cause // per core: cause of the last blocking L2 TLB miss

	probes []*Probe
	drams  []*DRAMProbe
	walks  []*WalkProbe

	ledger ledger
	phase  phaseDetector

	partition func() (l2, l3 int)

	gen        uint64 // global context-switch generation counter
	l2MissEver uint64 // monotone L2 TLB misses (never reset; feeds the phase detector)
}

// Default plane parameters.
const (
	DefaultLedgerCap      = 4096
	DefaultPhaseEveryRefs = 2048
	DefaultPhaseThreshold = 0.25
)

// NewPlane builds an attribution plane for cfg.Cores cores.
func NewPlane(cfg Config) *Plane {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.LedgerCap <= 0 {
		cfg.LedgerCap = DefaultLedgerCap
	}
	if cfg.PhaseEveryRefs == 0 {
		cfg.PhaseEveryRefs = DefaultPhaseEveryRefs
	}
	if cfg.PhaseThreshold <= 0 {
		cfg.PhaseThreshold = DefaultPhaseThreshold
	}
	p := &Plane{
		cfg:     cfg,
		cores:   make([]coreAttr, cfg.Cores),
		curASID: make([]uint64, cfg.Cores),
		cause:   make([]Cause, cfg.Cores),
	}
	p.ledger.init(cfg.Cores, cfg.LedgerCap)
	p.phase.threshold = cfg.PhaseThreshold
	return p
}

// SetTrace wires a tracer; SwitchDamage and Phase events are emitted
// through it.
func (p *Plane) SetTrace(t *obs.Tracer) { p.tr = t }

// SetPartitionReader wires a closure reading the current CSALT data-way
// splits of the L2 and L3 caches; the ledger stamps every scheduling
// window with the split at open and the delta at close.
func (p *Plane) SetPartitionReader(fn func() (l2, l3 int)) {
	p.partition = fn
	if fn == nil {
		return
	}
	l2, l3 := fn()
	for i := range p.ledger.open {
		p.ledger.open[i].L2DataWays = l2
		p.ledger.open[i].L3DataWays = l3
	}
}

func (p *Plane) ways() (int, int) {
	if p.partition == nil {
		return 0, 0
	}
	return p.partition()
}

// SetContext records core's initially scheduled address space, anchoring
// the curASID register and the core's implicit first scheduling window.
func (p *Plane) SetContext(core int, asid uint64) {
	p.curASID[core] = asid
	p.ledger.open[core].FromASID = asid
	p.ledger.open[core].ToASID = asid
}

// SetCore records which core is driving the hierarchy (Translate entry).
func (p *Plane) SetCore(core int) { p.curCore = core }

// SetAccess records the driving core and whether the in-flight access is
// a translation-class line (memSystem.Access entry).
func (p *Plane) SetAccess(core int, translation bool) {
	p.curCore = core
	if translation {
		p.curClass = 1
	} else {
		p.curClass = 0
	}
}

// Generation returns the global context-switch generation counter.
func (p *Plane) Generation() uint64 { return p.gen }

// Cores returns the number of cores the plane was sized for.
func (p *Plane) Cores() int { return p.cfg.Cores }

// TotalSwitchMisses returns the measured-region switch-induced miss
// count summed over every probe (epoch-CSV column feed).
func (p *Plane) TotalSwitchMisses() uint64 { return p.ledger.totals.SwitchMisses }

// TotalCrossEvictions returns the measured-region cross-ASID eviction
// count summed over every probe (epoch-CSV column feed).
func (p *Plane) TotalCrossEvictions() uint64 { return p.ledger.totals.Evictions }

// PhaseCount returns the number of phase boundaries detected so far.
func (p *Plane) PhaseCount() uint64 {
	return uint64(len(p.phase.bounds)) + p.phase.dropped
}

// PhaseEvery returns the phase-detector window length in references.
func (p *Plane) PhaseEvery() uint64 { return p.cfg.PhaseEveryRefs }

// ResetMeasured zeroes the measured-region accumulators at the warmup
// boundary, mirroring the component ResetStats calls it rides along
// with: per-probe miss/hit/eviction counters and heatmaps, DRAM and walk
// attribution, and the damage ledger. Classification state (seen sets,
// ownership, eviction records, shadow LRUs) survives — it mirrors
// microarchitectural state, which warmup exists to populate — as do the
// core cycle buckets (the cycle clock they sum to is monotone) and the
// phase detector's monotone inputs.
func (p *Plane) ResetMeasured() {
	for _, pr := range p.probes {
		pr.resetMeasured()
	}
	for _, d := range p.drams {
		d.wait = [2]uint64{}
		d.waits = [2]uint64{}
	}
	for _, w := range p.walks {
		w.walks = [MaxWalkDepth + 1]uint64{}
		w.cycles = [MaxWalkDepth + 1]uint64{}
	}
	p.ledger.resetMeasured()
}

// CoreProbe is the per-core hook bundle held by cpu.Core. All methods
// are nil-receiver safe.
type CoreProbe struct {
	p    *Plane
	core int
}

// Core returns the probe for one core.
func (p *Plane) Core(core int) *CoreProbe { return &CoreProbe{p: p, core: core} }

// Compute charges non-memory instruction cycles.
func (c *CoreProbe) Compute(delta uint64) {
	if c == nil {
		return
	}
	c.p.cores[c.core].compute += delta
}

// TranslateStall charges a blocking translation stall, bucketed by the
// cause of the L2 TLB miss that produced it (set by the flagged L2 TLB
// probe immediately before the core observes the stall). Switch-induced
// refill cycles also accrue to the core's open scheduling window.
func (c *CoreProbe) TranslateStall(delta uint64) {
	if c == nil {
		return
	}
	p := c.p
	cause := p.cause[c.core]
	p.cores[c.core].translate[cause] += delta
	if cause == SwitchInduced {
		p.ledger.open[c.core].RefillCycles += delta
		p.ledger.totals.RefillCycles += delta
	}
}

// DataStall charges MLP-window data stall cycles.
func (c *CoreProbe) DataStall(delta uint64) {
	if c == nil {
		return
	}
	c.p.cores[c.core].data += delta
}

// DrainStall charges end-of-run drain cycles (the only cycle-advance
// site with no existing stats counter).
func (c *CoreProbe) DrainStall(delta uint64) {
	if c == nil {
		return
	}
	c.p.cores[c.core].drain += delta
}

// Switch records a context switch: the generation counter advances, the
// core's current-ASID register updates, and the ledger closes the core's
// scheduling window and opens the next.
func (c *CoreProbe) Switch(cycle, fromASID, toASID uint64) {
	if c == nil {
		return
	}
	p := c.p
	p.gen++
	p.curASID[c.core] = toASID
	p.ledger.switchAt(p, c.core, cycle, fromASID, toASID)
}

// DRAMProbe attributes DRAM queueing delay to the access class (data
// vs. translation) that paid it. Held by dram.DRAM; nil-receiver safe.
type DRAMProbe struct {
	p     *Plane
	name  string
	wait  [2]uint64 // queue-wait cycles by class
	waits [2]uint64 // queue-wait observations by class
}

// NewDRAMProbe creates and registers a DRAM probe.
func (p *Plane) NewDRAMProbe(name string) *DRAMProbe {
	d := &DRAMProbe{p: p, name: name}
	p.drams = append(p.drams, d)
	return d
}

// QueueWait charges one read's bank queueing delay to the current access
// class.
func (d *DRAMProbe) QueueWait(wait uint64) {
	if d == nil {
		return
	}
	cls := d.p.curClass
	d.wait[cls] += wait
	d.waits[cls]++
}

// CheckAgainst verifies the class buckets sum to the device's QueueWait
// histogram (sum of waits, number of observations), returning a detail
// string when broken.
func (d *DRAMProbe) CheckAgainst(waitSum, waitCount uint64) string {
	if s := d.wait[0] + d.wait[1]; s != waitSum {
		return fmt.Sprintf("dram %s attributed queue wait %d != observed %d", d.name, s, waitSum)
	}
	if n := d.waits[0] + d.waits[1]; n != waitCount {
		return fmt.Sprintf("dram %s attributed waits %d != observed %d", d.name, n, waitCount)
	}
	return ""
}

// MaxWalkDepth is the page-walk memory-access depth at which the
// attribution histogram saturates (nested 2-D walks reach 24 accesses;
// the final bucket absorbs anything deeper).
const MaxWalkDepth = 32

// WalkProbe attributes completed page walks by depth — the number of
// memory accesses the walk issued, PSC and nested-TLB skips included.
// Held by walker.Walker; nil-receiver safe.
type WalkProbe struct {
	name   string
	walks  [MaxWalkDepth + 1]uint64
	cycles [MaxWalkDepth + 1]uint64
}

// NewWalkProbe creates and registers a walk probe.
func (p *Plane) NewWalkProbe(name string) *WalkProbe {
	w := &WalkProbe{name: name}
	p.walks = append(p.walks, w)
	return w
}

// Walk records one completed walk of the given memory-access depth and
// latency.
func (w *WalkProbe) Walk(depth int, cycles uint64) {
	if w == nil {
		return
	}
	if depth < 0 {
		depth = 0
	}
	if depth > MaxWalkDepth {
		depth = MaxWalkDepth
	}
	w.walks[depth]++
	w.cycles[depth] += cycles
}

// CheckAgainst verifies the depth buckets sum to the walker's completed
// walk count and cycle histogram sum, returning a detail string when
// broken.
func (w *WalkProbe) CheckAgainst(completed, cycleSum uint64) string {
	var n, s uint64
	for d := 0; d <= MaxWalkDepth; d++ {
		n += w.walks[d]
		s += w.cycles[d]
	}
	if n != completed {
		return fmt.Sprintf("walker %s attributed walks %d != completed %d", w.name, n, completed)
	}
	if s != cycleSum {
		return fmt.Sprintf("walker %s attributed walk cycles %d != observed %d", w.name, s, cycleSum)
	}
	return ""
}

// CheckCore verifies one core's cycle-attribution conservation laws
// against the core's monotone counters: translate buckets sum to the
// translate-stall counter, the data bucket matches the data-stall
// counter, and all buckets together sum to the cycle clock.
func (p *Plane) CheckCore(core int, cycle, translateStall, dataStall uint64) string {
	ca := &p.cores[core]
	var tsum uint64
	for _, v := range ca.translate {
		tsum += v
	}
	if tsum != translateStall {
		return fmt.Sprintf("core %d translate-cause sum %d != translate stall %d", core, tsum, translateStall)
	}
	if ca.data != dataStall {
		return fmt.Sprintf("core %d data bucket %d != data stall %d", core, ca.data, dataStall)
	}
	if total := ca.compute + tsum + ca.data + ca.drain; total != cycle {
		return fmt.Sprintf("core %d cycle buckets %d (compute %d + translate %d + data %d + drain %d) != cycle %d",
			core, total, ca.compute, tsum, ca.data, ca.drain, cycle)
	}
	return ""
}

// CheckLedger verifies the damage-ledger totals agree with the per-probe
// attribution they aggregate: every switch-induced miss and every
// cross-ASID eviction is charged to exactly one scheduling window.
func (p *Plane) CheckLedger() string {
	var misses, evicts uint64
	for _, pr := range p.probes {
		misses += pr.miss[SwitchInduced]
		evicts += pr.crossEvicts
	}
	if p.ledger.totals.SwitchMisses != misses {
		return fmt.Sprintf("ledger switch misses %d != probe switch-induced sum %d", p.ledger.totals.SwitchMisses, misses)
	}
	if p.ledger.totals.Evictions != evicts {
		return fmt.Sprintf("ledger evictions %d != probe cross-ASID eviction sum %d", p.ledger.totals.Evictions, evicts)
	}
	return ""
}
