// Package csalt is a from-scratch reproduction of "CSALT: Context Switch
// Aware Large TLB" (Marathe et al., MICRO-50, 2017): a multi-core
// memory-system simulator with virtualized (2-D nested) address
// translation, a part-of-memory L3 TLB (POM-TLB), and the CSALT TLB-aware
// dynamic cache-partitioning schemes, plus every baseline the paper
// evaluates against (conventional L1–L2 TLBs, unmanaged POM-TLB, TSB,
// DIP).
//
// Quick start:
//
//	cfg := csalt.DefaultConfig()
//	cfg.Mix = csalt.MixByIDMust("gups")
//	cfg.Scheme = csalt.SchemeCSALTCD
//	res, err := csalt.Run(cfg)
//	fmt.Println(res.IPCGeomean)
//
// The examples/ directory contains runnable scenarios; cmd/experiments
// regenerates every table and figure of the paper's evaluation.
package csalt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/workload"
)

// Config describes one simulated machine + workload pairing; see
// DefaultConfig for the paper's Table 2 machine.
type Config = sim.Config

// Results carries every measurement of a run (IPC, MPKIs, walk costs,
// occupancies, partition traces).
type Results = sim.Results

// Mix is a two-VM workload composition (Table 3).
type Mix = workload.Mix

// Benchmark names the synthetic workload models (§4.1).
type Benchmark = workload.Name

// Translation organisations below the L2 TLB.
const (
	OrgConventional = sim.OrgConventional // page walk on every L2 TLB miss
	OrgPOM          = sim.OrgPOM          // part-of-memory L3 TLB (CSALT's substrate)
	OrgTSB          = sim.OrgTSB          // software translation storage buffers
)

// Cache-management schemes.
const (
	SchemeNone    = core.None               // unpartitioned caches
	SchemeStatic  = core.Static             // fixed data/TLB split
	SchemeCSALTD  = core.Dynamic            // CSALT-D (Algorithm 1)
	SchemeCSALTCD = core.CriticalityDynamic // CSALT-CD (Algorithm 3)
)

// Replacement policies for the managed caches (§3.4).
const (
	PolicyLRU    = cache.PolicyLRU
	PolicyNRU    = cache.PolicyNRU
	PolicyBTPLRU = cache.PolicyBTPLRU
)

// Benchmarks of §4.1.
const (
	Canneal       = workload.Canneal
	CComp         = workload.CComp
	Graph500      = workload.Graph500
	GUPS          = workload.GUPS
	PageRank      = workload.PageRank
	StreamCluster = workload.StreamCluster
)

// DefaultConfig returns the paper's 8-core machine (Table 2) with
// run-control values scaled for simulator-sized runs.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run builds the system described by cfg and plays its workload to
// completion.
func Run(cfg Config) (*Results, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx every few hundred steps and returns ctx.Err() (wrapped) once
// cancelled, so SIGINT-driven shutdowns stop a long run promptly.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	return newRunner(ManyOpts{}).RunContext(ctx, cfg)
}

// ManyOpts configures RunManyContext beyond the per-run Config: knobs
// that shape execution without affecting any measurement, so they stay
// out of Config (which keys memo caches and checkpoint stores).
type ManyOpts struct {
	// Parallel bounds the worker pool; <= 0 selects one worker per CPU.
	Parallel int
	// StallLimitCycles arms each run's forward-progress watchdog: a run
	// in which no instruction retires for this many simulated cycles
	// fails with a diagnostic queue dump instead of hanging the sweep.
	// Zero disables the guard.
	StallLimitCycles uint64
	// CheckInvariants arms each run's opt-in structural invariant
	// checkers (periodic mid-run conservation and partition audits) in
	// addition to the cheap always-on end-of-run pass. A violated
	// invariant fails that run with an invariant.Violation.
	CheckInvariants bool
}

// newRunner maps o onto the experiment job runner, which gives every run
// panic isolation: a simulator panic fails that run with an
// experiment.PanicError instead of killing the process.
func newRunner(o ManyOpts) *experiment.Runner {
	r := experiment.NewRunner(experiment.Scale{})
	r.StallLimit = o.StallLimitCycles
	r.CheckInvariants = o.CheckInvariants
	return r
}

// RunMany executes several independent configurations across a bounded
// worker pool and returns their results in input order; see
// RunManyContext for the failure semantics.
func RunMany(cfgs []Config, parallel int) ([]*Results, error) {
	return RunManyContext(context.Background(), cfgs, ManyOpts{Parallel: parallel})
}

// RunManyContext executes several independent configurations across a
// bounded worker pool and returns their results in input order. Each
// simulation owns its entire world, so runs neither share state nor
// perturb each other; results are deterministic per configuration
// regardless of parallelism. Equal configurations are simulated once and
// share one *Results.
//
// Failures are isolated and aggregated: a panicking or failing
// configuration nils only its own result slot, every other configuration
// still runs, and the returned error joins one wrapped error per failure
// (each naming the configuration index and mix). Cancelling ctx stops
// in-flight simulations promptly; configurations not yet started are
// skipped with their slots left nil, and the cancellation is included in
// the joined error.
func RunManyContext(ctx context.Context, cfgs []Config, o ManyOpts) ([]*Results, error) {
	results := make([]*Results, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}
	r := newRunner(o)
	parallel := o.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(cfgs) {
		parallel = len(cfgs)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	idx := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue
				}
				res, err := r.RunContext(ctx, cfgs[i])
				if err != nil {
					if errors.Is(err, context.Canceled) {
						continue // interrupted, not failed
					}
					mu.Lock()
					errs = append(errs, fmt.Errorf("csalt: configuration %d (%s): %w", i, cfgs[i].Mix.ID, err))
					mu.Unlock()
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, fmt.Errorf("csalt: sweep interrupted: %w", err))
	}
	return results, errors.Join(errs...)
}

// Mixes returns the paper's ten workload compositions in x-axis order.
func Mixes() []Mix { return workload.Mixes() }

// MixByID looks a mix up by its paper label (e.g. "graph500_gups").
func MixByID(id string) (Mix, error) { return workload.MixByID(id) }

// MixByIDMust panics on unknown labels; for examples and tests.
func MixByIDMust(id string) Mix {
	m, err := workload.MixByID(id)
	if err != nil {
		panic(err)
	}
	return m
}

// HomogeneousMix builds a mix that co-schedules two instances of one
// benchmark, the paper's convention for single-name workloads.
func HomogeneousMix(b Benchmark) Mix {
	return Mix{ID: string(b), VM1: b, VM2: b}
}

// ParseBenchmark converts a string (accepting the paper's abbreviations)
// to a Benchmark.
func ParseBenchmark(s string) (Benchmark, error) { return workload.Parse(s) }
