package sim

import (
	"context"
	"fmt"
	"math/bits"
	"path/filepath"

	"github.com/csalt-sim/csalt/internal/cpu"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/trace"
	"github.com/csalt-sim/csalt/internal/workload"
)

// vaBase places a thread's private region in guest-virtual space; threads
// are 64 GB apart, far beyond any scaled footprint.
func vaBase(thread int) mem.VAddr {
	return mem.VAddr(0x10_0000_0000 + uint64(thread)<<36)
}

// coreSnap records a core's counters at the warmup boundary so measured
// IPC excludes warmup work.
type coreSnap struct {
	instructions uint64
	cycles       uint64
}

// System is one fully assembled machine + workload.
type System struct {
	cfg   Config
	mem   *memSystem
	cores []*cpu.Core
	vms   []*vmState
	snaps []coreSnap

	// Observability (nil/zero unless AttachObserver was called). The run
	// loop's only added cost when disabled is one nil compare per step.
	obs         *obs.Observer
	sampleEvery uint64
	sinceSample uint64
	sampleSeq   uint64
	sampleBase  sampleBase

	// Attribution plane (nil unless AttachIntrospection was called). The
	// run loop's only added cost when detached is one nil compare per step.
	intro       *introspect.Plane
	introRefs   uint64
	introChecks []introCheck

	// Forward-progress watchdog (disabled unless SetStallLimit was called).
	dog watchdog

	// Fault injection and runtime self-verification (see invariant.go).
	// Zero values cost one nil compare per watchdog poll.
	chaos chaosState
	inv   invState
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ms, err := newMemSystem(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, mem: ms}
	if invariantsTagEnabled {
		s.EnableInvariantChecks(0)
	}

	// One VM per context slot; slots alternate between the mix's two
	// benchmarks (a 4-context run co-schedules two instances of each).
	for i := 0; i < cfg.ContextsPerCore; i++ {
		bench := cfg.Mix.VM1
		if i%2 == 1 {
			bench = cfg.Mix.VM2
		}
		vm, err := newVM(mem.ASID(i+1), bench, cfg.Virtualized, cfg.PageTableLevels, ms.hostA, cfg.HugePages, cfg.EPT4K)
		if err != nil {
			return nil, fmt.Errorf("sim: building VM %d: %w", i+1, err)
		}
		if err := ms.addVM(vm); err != nil {
			return nil, err
		}
		s.vms = append(s.vms, vm)
	}

	// Cores: core c runs thread c of every VM, one context per VM.
	for c := 0; c < cfg.Cores; c++ {
		var ctxs []cpu.Context
		for vi, vm := range s.vms {
			var src trace.Source
			var err error
			if cfg.TraceDir != "" {
				path := filepath.Join(cfg.TraceDir, fmt.Sprintf("vm%d_core%d.trace", vi+1, c))
				src, err = trace.LoadReplay(path)
			} else {
				src, err = workload.New(vm.bench, workload.Params{
					ASID:  vm.asid,
					Base:  vaBase(c),
					Seed:  cfg.Seed + uint64(vi)*1_000_003 + uint64(c)*7919,
					Scale: cfg.Scale,
				})
			}
			if err != nil {
				return nil, err
			}
			if fp, ok := src.(trace.Footprinter); ok && !cfg.NoPrewarm {
				var prewarmErr error
				fp.VisitFootprint(func(v mem.VAddr) {
					if prewarmErr == nil {
						prewarmErr = ms.prewarmTranslation(vm, v)
					}
				})
				if prewarmErr != nil {
					return nil, fmt.Errorf("sim: prewarming core %d ctx %d: %w", c, vi, prewarmErr)
				}
			}
			ctxs = append(ctxs, cpu.Context{Source: src, ASID: vm.asid})
		}
		coreCfg := cpu.Config{
			ID:             c,
			CPIx100:        cfg.CPIx100,
			MLPWindow:      cfg.MLPWindow,
			SwitchInterval: cfg.SwitchIntervalCycles,
		}
		coreObj, err := cpu.New(coreCfg, ctxs, ms, ms)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, coreObj)
	}
	return s, nil
}

// MustNew panics on configuration errors.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Run plays the workload to completion: every core retires
// MaxRefsPerCore memory references, with statistics reset once all cores
// have passed WarmupRefs. Cores are interleaved min-cycle-first so shared
// resources (L3, DRAM banks, the POM) see a coherent global clock.
func (s *System) Run() (*Results, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the loop polls ctx
// every few hundred steps and returns ctx.Err() (wrapped) once it is
// cancelled, so SIGINT/SIGTERM or a per-job deadline stop a simulation
// promptly without losing the process. The poll shares its cadence with
// the forward-progress watchdog (see SetStallLimit); an unobserved,
// uncancelled run takes the exact same simulation path as before.
func (s *System) RunContext(ctx context.Context) (*Results, error) {
	target := s.cfg.MaxRefsPerCore
	warm := s.cfg.WarmupRefs
	warmed := warm == 0
	if warmed {
		s.takeSnaps()
	}

	// Cores step min-clock-first, the lowest index winning ties. The first
	// pick is the smallest clock of all. A batch then steps that core
	// until it loses the turn to the runner-up; no other clock moves
	// meanwhile, so the runner-up is the next pick, and each batch costs
	// one pass over the clock array to find the next runner-up.
	sc := newSchedule(s.cores, target, warm)
	var sinceCheck int
	for ni, _ := sc.runnerUp(-1); ni >= 0; {
		other, otherClock := sc.runnerUp(ni)
		next := s.cores[ni]
		for {
			sinceCheck++
			if sinceCheck >= checkEvery {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: run cancelled: %w", err)
				}
				if err := s.checkStall(); err != nil {
					return nil, err
				}
				if err := s.checkPeriodic(); err != nil {
					return nil, err
				}
			}
			ok, err := next.Step()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("sim: core %d trace ended prematurely", next.ID())
			}
			if s.obs != nil && s.obs.Sampler != nil {
				s.sinceSample++
				if s.sinceSample >= s.sampleEvery {
					s.sinceSample = 0
					s.sample()
				}
			}
			if s.intro != nil {
				s.introRefs++
				if s.introRefs >= s.intro.PhaseEvery() {
					s.introRefs = 0
					s.phaseSample()
				}
			}
			keep := sc.stepped(ni, next, other, otherClock)
			if !warmed && sc.reached == len(s.cores) {
				warmed = true
				s.mem.resetStats()
				if s.intro != nil {
					// The component counters under the probes just
					// reset; measured attribution resets with them.
					s.intro.ResetMeasured()
				}
				s.takeSnaps()
				if s.obs != nil && s.obs.Sampler != nil {
					// The reset zeroed the counters under the sampler's
					// baseline; re-anchor so the next delta is not negative.
					s.captureBase()
				}
			}
			if !keep {
				break
			}
		}
		ni = other
	}
	for _, c := range s.cores {
		c.Drain()
	}
	// Always-on self-verification: a run whose counters violate a
	// conservation law fails rather than reporting plausible-looking
	// numbers (see ROBUSTNESS.md, "Model invariants").
	if err := s.CheckInvariants(); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// retiredClock fills the clock slot of a core that has retired its
// MaxRefsPerCore references. No running core's clock reaches 2^64-1, so a
// retired core is never picked.
const retiredClock = ^uint64(0)

// schedule is the run loop's view of the cores: a packed copy of their
// clocks, one slot per core, and how many cores have reached the warm-up
// boundary. RunContext builds it from the cores at entry, since perfbench
// swaps cores in after New; after that only the stepped core's slot
// changes.
type schedule struct {
	clocks       []uint64
	target, warm uint64 // MaxRefsPerCore, WarmupRefs
	reached      int    // cores whose MemRefs have reached warm
}

func newSchedule(cores []*cpu.Core, target, warm uint64) schedule {
	sc := schedule{clocks: make([]uint64, len(cores)), target: target, warm: warm}
	for i, c := range cores {
		sc.clocks[i] = sc.clock(c)
		if c.Stats.MemRefs.Value() >= warm {
			sc.reached++
		}
	}
	return sc
}

// clock is c's slot: its cycle, or retiredClock once it has retired.
func (sc *schedule) clock(c *cpu.Core) uint64 {
	if c.Stats.MemRefs.Value() >= sc.target {
		return retiredClock
	}
	return c.Cycle()
}

// runnerUp returns the core with the smallest clock other than skip, and
// that clock. Strict < makes the lowest index win ties. It returns -1 and
// retiredClock if every core but skip has retired.
func (sc *schedule) runnerUp(skip int) (int, uint64) {
	bi, best := -1, retiredClock
	for i, cy := range sc.clocks {
		if i == skip {
			cy = retiredClock
		}
		// Which core holds the minimum changes too irregularly from one
		// pass to the next for a branch to predict, so select without
		// one: lower is all ones when cy < best (the borrow of cy - best)
		// and zero otherwise.
		_, borrow := bits.Sub64(cy, best, 0)
		lower := -borrow
		best ^= (best ^ cy) & lower
		bi ^= (bi ^ i) & int(lower)
	}
	return bi, best
}

// stepped refreshes core i's slot after c, core i, retired one reference,
// and reports whether i keeps the turn against the runner-up other, at
// otherClock: its clock is below the runner-up's, or level with it at a
// lower index. A retired core never keeps it.
func (sc *schedule) stepped(i int, c *cpu.Core, other int, otherClock uint64) bool {
	if c.Stats.MemRefs.Value() == sc.warm {
		sc.reached++
	}
	cy := sc.clock(c)
	sc.clocks[i] = cy
	return cy < otherClock || cy == otherClock && i < other
}

// takeSnaps records per-core counters at the measurement start.
func (s *System) takeSnaps() {
	s.snaps = make([]coreSnap, len(s.cores))
	for i, c := range s.cores {
		s.snaps[i] = coreSnap{
			instructions: c.Stats.Instructions.Value(),
			cycles:       c.Cycle(),
		}
	}
}

// Config returns the configuration the system was built from, so callers
// holding only the system (observer hooks) can label what they are
// looking at.
func (s *System) Config() Config { return s.cfg }

// Mem exposes the memory system for white-box tests.
func (s *System) Mem() *memSystem { return s.mem }

// Cores exposes the core models for white-box tests.
func (s *System) Cores() []*cpu.Core { return s.cores }
