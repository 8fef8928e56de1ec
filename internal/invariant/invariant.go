// Package invariant provides the simulator's runtime self-verification
// layer: named conservation checks over model counters and structures
// (hits+misses == lookups at every TLB/POM/cache level, occupancy within
// capacity, partition sums equal to associativity, walker and DRAM
// request conservation — see ROBUSTNESS.md, "Model invariants").
//
// A violated check is reported as a structured *Violation error, which
// flows through the experiment engine's ordinary failure machinery: it
// fails the job, aggregates under errors.Join, and renders as an ERR cell
// under -keep-going.
package invariant

import (
	"errors"
	"fmt"
	"sort"
)

// Violation is one broken conservation law.
type Violation struct {
	Check  string // the registered check name, e.g. "tlb.l1tlb0.conservation"
	Detail string // the arithmetic that failed, e.g. "hits(5)+misses(3) != lookups(9)"
}

// Error renders "invariant violated: <check>: <detail>".
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant violated: %s: %s", v.Check, v.Detail)
}

// Violationf builds a Violation with a formatted detail.
func Violationf(check, format string, args ...interface{}) *Violation {
	return &Violation{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// IsViolation reports whether err has a *Violation anywhere in its chain,
// returning the first one.
func IsViolation(err error) (*Violation, bool) {
	var v *Violation
	ok := errors.As(err, &v)
	return v, ok
}

// Set is a named collection of checks. Checks are closures over live
// model state, registered once at system construction (mirroring how
// obs metrics register) and evaluated on demand.
type Set struct {
	names  []string
	checks map[string]func() *Violation
}

// NewSet builds an empty check set.
func NewSet() *Set {
	return &Set{checks: make(map[string]func() *Violation)}
}

// Register adds one named check; fn returns nil while the invariant
// holds. Registering a duplicate name panics — it means two components
// claimed the same identity, which would silently mask one of them.
func (s *Set) Register(name string, fn func() *Violation) {
	if _, dup := s.checks[name]; dup {
		panic("invariant: duplicate check " + name)
	}
	s.names = append(s.names, name)
	s.checks[name] = fn
}

// Len reports how many checks are registered.
func (s *Set) Len() int { return len(s.checks) }

// Names returns the registered check names, sorted.
func (s *Set) Names() []string {
	out := append([]string(nil), s.names...)
	sort.Strings(out)
	return out
}

// Check evaluates every registered check in registration order and joins
// all violations into one error (nil when every invariant holds). All
// checks run even after a failure, so one report names every broken law.
func (s *Set) Check() error {
	var errs []error
	for _, name := range s.names {
		if v := s.checks[name](); v != nil {
			errs = append(errs, v)
		}
	}
	return errors.Join(errs...)
}
