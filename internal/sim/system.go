package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

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

	// Snapshot plane (inert unless EnableSnapshots was called). warmed is
	// run-loop state promoted to a field so a restored system resumes on
	// the correct side of the warmup boundary; restoredBase keeps
	// AttachObserver from re-anchoring a restored sampler baseline.
	snapSink     SnapshotSink
	snapEvery    uint64
	sinceSnap    uint64
	snapStop     atomic.Bool
	warmed       bool
	restoredBase bool

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
	if !s.warmed && warm == 0 {
		s.warmed = true
		s.takeSnaps()
	}

	var sinceCheck int
	for {
		// Pick the active core with the smallest clock; the scan's strict <
		// comparison makes the lowest index win ties.
		var next *cpu.Core
		nextIdx := -1
		for i, c := range s.cores {
			if c.Stats.MemRefs.Value() >= target {
				continue
			}
			if next == nil || c.Cycle() < next.Cycle() {
				next, nextIdx = c, i
			}
		}
		if next == nil {
			break
		}
		// Batch: other cores' clocks cannot advance while next is stepped,
		// so next stays the reference schedule's pick — no re-scan needed —
		// until its clock passes the best other core (or reaches it with a
		// higher index, which would lose the tie).
		minOther := ^uint64(0)
		minOtherIdx := -1
		haveOther := false
		for i, c := range s.cores {
			if i == nextIdx || c.Stats.MemRefs.Value() >= target {
				continue
			}
			if cy := c.Cycle(); !haveOther || cy < minOther {
				minOther, minOtherIdx, haveOther = cy, i, true
			}
		}
		for {
			sinceCheck++
			if sinceCheck >= checkEvery {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					// A cancellation racing a requested snapshot-drain still
					// gets its final snapshot: the state at this boundary is
					// exactly what a restore needs, and callers treat
					// ErrSnapshotStop like a cancellation.
					if s.snapSink != nil && s.snapStop.Load() {
						if werr := s.writeSnapshot(); werr == nil {
							return nil, ErrSnapshotStop
						}
					}
					return nil, fmt.Errorf("sim: run cancelled: %w", err)
				}
				if err := s.checkStall(); err != nil {
					return nil, err
				}
				if err := s.checkPeriodic(); err != nil {
					return nil, err
				}
				if s.snapSink != nil {
					// The poll boundary is schedule-safe: a fresh core scan
					// after restore picks the same next core the batch loop
					// would have (see snapshot.go), so nothing about taking a
					// snapshot here perturbs the simulated schedule.
					stop := s.snapStop.Load()
					s.sinceSnap += checkEvery
					if stop || s.sinceSnap >= s.snapEvery {
						s.sinceSnap = 0
						if err := s.writeSnapshot(); err != nil {
							return nil, err
						}
						if stop {
							return nil, ErrSnapshotStop
						}
					}
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
			if !s.warmed {
				crossed := true
				for _, c := range s.cores {
					if c.Stats.MemRefs.Value() < warm {
						crossed = false
						break
					}
				}
				if crossed {
					s.warmed = true
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
			}
			if next.Stats.MemRefs.Value() >= target {
				break
			}
			if haveOther {
				cy := next.Cycle()
				if cy > minOther || (cy == minOther && nextIdx > minOtherIdx) {
					break
				}
			}
		}
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
// holding only the system (observer hooks, telemetry sources) can label
// what they are looking at.
func (s *System) Config() Config { return s.cfg }

// Mem exposes the memory system for white-box tests.
func (s *System) Mem() *memSystem { return s.mem }

// Cores exposes the core models for white-box tests.
func (s *System) Cores() []*cpu.Core { return s.cores }
