package sim

import (
	"context"
	"fmt"
	"strings"

	"github.com/csalt-sim/csalt/internal/obs"
)

// The run loop polls the watchdog (and any context) every checkEvery
// steps; one modulo-free counter compare per step keeps the unobserved
// fast path unchanged.
const checkEvery = 256

// StallError reports a forward-progress violation: no core retired an
// instruction for more than Limit cycles of simulated time. It carries a
// diagnostic dump of the memory-system queues and occupancies taken at
// detection time, so a livelock in the DRAM/cache/walker machinery
// surfaces as a readable job failure instead of a hung process.
type StallError struct {
	Limit        uint64 // the configured stall limit, in cycles
	Cycle        uint64 // global cycle at detection
	LastProgress uint64 // global cycle of the last observed retirement
	Dump         string // queue/occupancy state from the obs registry
}

// Error renders the headline; the dump follows on its own lines.
func (e *StallError) Error() string {
	msg := fmt.Sprintf("sim: no instruction retired for %d cycles (limit %d, cycle %d)",
		e.Cycle-e.LastProgress, e.Limit, e.Cycle)
	if e.Dump != "" {
		msg += "\nmemory-system state at detection:\n" + e.Dump
	}
	return msg
}

// watchdog tracks retirement progress across run-loop polls.
type watchdog struct {
	limit        uint64 // 0 = disabled
	lastInstr    uint64
	lastProgress uint64 // cycle at the last poll that saw retirement
	primed       bool
}

// SetStallLimit arms the in-simulator forward-progress guard: if no core
// retires an instruction for limit cycles of simulated time, Run fails
// with a *StallError carrying a queue/occupancy dump. Zero disables the
// guard (the default). Call before Run; the guard never perturbs results —
// it only turns a would-be livelock into a diagnosable error.
func (s *System) SetStallLimit(limit uint64) { s.dog.limit = limit }

// instrTotal sums retired instructions across cores.
func (s *System) instrTotal() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Stats.Instructions.Value()
	}
	return n
}

// maxCycle returns the furthest-advanced core clock.
func (s *System) maxCycle() uint64 {
	var m uint64
	for _, c := range s.cores {
		if cyc := c.Cycle(); cyc > m {
			m = cyc
		}
	}
	return m
}

// poll is the run loop's every-checkEvery-steps block: cancellation, then
// the forward-progress watchdog, then the periodic invariant pass.
func (s *System) poll(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: run cancelled: %w", err)
	}
	if err := s.checkStall(); err != nil {
		return err
	}
	return s.checkPeriodic()
}

// checkStall polls the watchdog; it returns a *StallError once the
// retirement gap exceeds the limit.
func (s *System) checkStall() error {
	if s.dog.limit == 0 {
		return nil
	}
	instr := s.instrTotal()
	cycle := s.maxCycle()
	if !s.dog.primed || instr != s.dog.lastInstr {
		s.dog.primed = true
		s.dog.lastInstr = instr
		s.dog.lastProgress = cycle
		return nil
	}
	if cycle-s.dog.lastProgress <= s.dog.limit {
		return nil
	}
	return &StallError{
		Limit:        s.dog.limit,
		Cycle:        cycle,
		LastProgress: s.dog.lastProgress,
		Dump:         s.stallDump(),
	}
}

// stallDump snapshots the memory-system state most likely to explain a
// livelock — DRAM queues, walker latencies, and the hierarchy-wide
// occupancy/walk counters — through the standard metrics registry, so the
// dump stays in lockstep with whatever components publish.
func (s *System) stallDump() string {
	r := obs.NewRegistry()
	s.registerMetrics(r)
	snap := r.Snapshot()
	keep := make(obs.Snapshot)
	for group, metrics := range snap {
		if strings.HasPrefix(group, "dram.") || strings.HasPrefix(group, "walker.") ||
			strings.HasPrefix(group, "tlb.pom") || group == "sim" {
			keep[group] = metrics
		}
	}
	var b strings.Builder
	if err := keep.WriteText(&b); err != nil {
		return fmt.Sprintf("(dump failed: %v)", err)
	}
	return strings.TrimRight(b.String(), "\n")
}
