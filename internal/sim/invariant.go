package sim

import (
	"fmt"
	"sort"

	"github.com/csalt-sim/csalt/internal/invariant"
	"github.com/csalt-sim/csalt/internal/mem"
)

// invariantCheckEvery is the default cadence of opt-in periodic checks,
// in run-loop watchdog polls (each poll is checkEvery steps): structural
// scans are O(cache lines), so they run orders of magnitude less often
// than the watchdog itself.
const invariantCheckEvery = 64

// invState carries the system's self-verification configuration. The
// cheap counter-conservation set always runs once at the end of every
// run; the structural set and mid-run periodic checking are opt-in via
// EnableInvariantChecks (-check) or the `invariants` build tag.
type invState struct {
	cheap      *invariant.Set
	structural *invariant.Set
	pollEvery  int // watchdog polls between periodic checks; 0 = end-of-run only
	polls      int
}

// EnableInvariantChecks arms mid-run periodic invariant checking (cheap
// conservation plus structural scans) every `everySteps` simulation steps
// (rounded to the watchdog poll cadence; 0 selects the default). The
// end-of-run check runs regardless — this only adds mid-run coverage,
// catching a transiently-broken law that self-repairs before the run
// ends.
func (s *System) EnableInvariantChecks(everySteps uint64) {
	polls := int(everySteps / checkEvery)
	if polls <= 0 {
		polls = invariantCheckEvery
	}
	s.inv.pollEvery = polls
}

// buildInvariants registers every conservation law over the constructed
// hierarchy. Closures read live counters, mirroring registerMetrics;
// registration happens lazily on the first check so unchecked runs pay
// nothing.
func (s *System) buildInvariants() {
	if s.inv.cheap != nil {
		return
	}
	cheap, structural := invariant.NewSet(), invariant.NewSet()
	m := s.mem

	conserve := func(set *invariant.Set, name string, fn func() string) {
		set.Register(name, func() *invariant.Violation {
			if d := fn(); d != "" {
				return &invariant.Violation{Check: name, Detail: d}
			}
			return nil
		})
	}

	seenL2 := make(map[string]bool)
	for i := range m.l1tlb {
		conserve(cheap, "tlb."+m.l1tlb[i].Name()+".conservation", m.l1tlb[i].CheckConservation)
		conserve(cheap, "tlb."+m.l1tlb2[i].Name()+".conservation", m.l1tlb2[i].CheckConservation)
		// A shared L2 TLB appears once per core in the slice.
		if name := m.l2tlb[i].Name(); !seenL2[name] {
			seenL2[name] = true
			conserve(cheap, "tlb."+name+".conservation", m.l2tlb[i].CheckConservation)
		}
	}
	if m.pom != nil {
		conserve(cheap, "tlb.pom.conservation", m.pom.CheckConservation)
	}
	// TSB maps iterate in random order; register by sorted ASID so check
	// order (and joined-violation order) is deterministic.
	for _, asid := range sortedASIDs(m) {
		a := asid
		if t := m.gtsb[a]; t != nil {
			conserve(cheap, fmt.Sprintf("tlb.gtsb%d.conservation", a), t.CheckConservation)
		}
		if t := m.htsb[a]; t != nil {
			conserve(cheap, fmt.Sprintf("tlb.htsb%d.conservation", a), t.CheckConservation)
		}
	}
	for i := range m.l1d {
		conserve(cheap, "cache."+m.l1d[i].Name()+".conservation", m.l1d[i].CheckConservation)
		conserve(cheap, "cache."+m.l2[i].Name()+".conservation", m.l2[i].CheckConservation)
		conserve(structural, "cache."+m.l1d[i].Name()+".structure", m.l1d[i].CheckStructure)
		conserve(structural, "cache."+m.l2[i].Name()+".structure", m.l2[i].CheckStructure)
	}
	conserve(cheap, "cache."+m.l3.Name()+".conservation", m.l3.CheckConservation)
	conserve(structural, "cache."+m.l3.Name()+".structure", m.l3.CheckStructure)
	for i, w := range m.walkers {
		conserve(cheap, fmt.Sprintf("walker.%d.conservation", i), w.CheckConservation)
	}
	conserve(cheap, "dram."+m.ddr.Name()+".conservation", m.ddr.CheckConservation)
	conserve(cheap, "dram."+m.stacked.Name()+".conservation", m.stacked.CheckConservation)

	// Attribution conservation: every probe's cause buckets must sum to the
	// component counters it shadows (registered only when a plane is attached).
	for _, ic := range s.introChecks {
		ic := ic
		conserve(cheap, ic.name, ic.fn)
	}

	s.inv.cheap, s.inv.structural = cheap, structural
}

func sortedASIDs(m *memSystem) []mem.ASID {
	seen := make(map[mem.ASID]bool)
	var asids []mem.ASID
	for a := range m.gtsb {
		if !seen[a] {
			seen[a] = true
			asids = append(asids, a)
		}
	}
	for a := range m.htsb {
		if !seen[a] {
			seen[a] = true
			asids = append(asids, a)
		}
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	return asids
}

// CheckInvariants evaluates the cheap conservation set, plus the
// structural set when periodic checking is armed; all violations join
// into one error. The run loop calls it at the end of every run; tests
// and the -check flag add mid-run calls.
func (s *System) CheckInvariants() error {
	s.buildInvariants()
	err := s.inv.cheap.Check()
	if s.inv.pollEvery > 0 {
		if serr := s.inv.structural.Check(); serr != nil {
			if err == nil {
				return serr
			}
			return fmt.Errorf("%w\n%w", err, serr)
		}
	}
	return err
}

// checkPeriodic runs inside the watchdog-poll block: the periodic
// invariant pass, when armed.
func (s *System) checkPeriodic() error {
	if s.inv.pollEvery == 0 {
		return nil
	}
	s.inv.polls++
	if s.inv.polls < s.inv.pollEvery {
		return nil
	}
	s.inv.polls = 0
	s.buildInvariants()
	if err := s.inv.cheap.Check(); err != nil {
		return err
	}
	return s.inv.structural.Check()
}

// CorruptForTest deliberately breaks one conservation law so tests can
// assert the invariant layer catches it:
//
//	"tlb-counter"  bumps an L1 TLB hit counter without a lookup
//	"partition"    forces an out-of-range L3 way partition
//
// Counter corruption is safe to keep simulating past; the partition
// corruption must only be followed by invariant checks, not by fills.
func (s *System) CorruptForTest(kind string) {
	switch kind {
	case "tlb-counter":
		s.mem.l1tlb[0].Accesses.Hits.Inc()
	case "partition":
		s.mem.l3.CorruptPartitionForTest()
	default:
		panic("sim: unknown corruption kind " + kind)
	}
}
