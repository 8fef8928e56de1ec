// Command csaltsim runs simulated configurations and prints their
// measurements.
//
//	csaltsim -mix ccomp -scheme csalt-cd
//	csaltsim -mix graph500_gups -org conventional -contexts 4 -cores 8
//	csaltsim -vm1 canneal -vm2 gups -scheme csalt-d -refs 500000
//	csaltsim -mix ccomp,gups,canneal -scheme csalt-cd -parallel 4
//
// All of Table 2's machine parameters are built in; the flags select the
// workload, translation organisation, cache-management scheme and run
// length. -mix accepts a comma-separated list: the mixes share every other
// flag, run concurrently across -parallel workers, and print in the order
// given (each simulation is independent and deterministic, so the output
// does not depend on the parallelism level).
//
// SIGINT/SIGTERM cancel in-flight simulations cooperatively; observed runs
// still flush whatever trace/metrics/epoch artifacts accumulated before
// the signal. Every run, observed or not, goes through the experiment
// runner, so a simulator panic fails its mix instead of the process.
// Exit codes: 0 success, 1 simulation failure, 2 usage/config error, 130
// interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"github.com/csalt-sim/csalt"
	"github.com/csalt-sim/csalt/internal/obs"
)

// usageFail reports a usage/configuration error (bad flag value, unknown
// mix/org/scheme) and exits 2, distinguishable from simulation failures.
func usageFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// simFail reports a simulation failure and exits 1.
func simFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		mixID    = flag.String("mix", "", "paper mix id(s), comma separated (e.g. ccomp or ccomp,gups); overrides -vm1/-vm2")
		vm1      = flag.String("vm1", "gups", "benchmark for VM 1")
		vm2      = flag.String("vm2", "", "benchmark for VM 2 (defaults to vm1)")
		org      = flag.String("org", "pom", "translation organisation: conventional | pom | tsb")
		scheme   = flag.String("scheme", "none", "cache scheme: none | static | csalt-d | csalt-cd")
		dip      = flag.Bool("dip", false, "enable DIP insertion")
		cores    = flag.Int("cores", 8, "number of cores")
		contexts = flag.Int("contexts", 2, "VM contexts per core")
		native   = flag.Bool("native", false, "native (1-D) translation instead of virtualized 2-D")
		refs     = flag.Uint64("refs", 300_000, "memory references per core (including warmup)")
		warmup   = flag.Uint64("warmup", 60_000, "warmup references per core")
		scale    = flag.Float64("scale", 0.25, "workload footprint scale")
		seed     = flag.Uint64("seed", 1, "workload seed")
		parallel = flag.Int("parallel", runtime.NumCPU(), "simulations to run concurrently when -mix lists several")
		history  = flag.Bool("history", false, "print the per-epoch partition trace")
		jsonOut  = flag.Bool("json", false, "emit the full Results struct(s) as JSON")
		stallCyc = flag.Uint64("stall-cycles", 10_000_000, "forward-progress watchdog: fail a run if no instruction retires for this many simulated cycles (0 = off)")
		check    = flag.Bool("check", false, "arm the opt-in structural model-invariant checkers (periodic conservation and partition audits); a violation fails the run")
	)
	var of obsFlags
	registerObsFlags(&of)
	flag.Parse()

	prof, err := obs.StartProfiling(of.cpuProfile, of.memProfile)
	if err != nil {
		usageFail("profiling: %v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
		}
	}()

	base := csalt.DefaultConfig()
	base.Cores = *cores
	base.ContextsPerCore = *contexts
	base.Virtualized = !*native
	base.MaxRefsPerCore = *refs
	base.WarmupRefs = *warmup
	base.Scale = *scale
	base.Seed = *seed
	base.DIP = *dip
	base.RecordHistory = *history

	switch *org {
	case "conventional":
		base.Org = csalt.OrgConventional
	case "pom":
		base.Org = csalt.OrgPOM
	case "tsb":
		base.Org = csalt.OrgTSB
	default:
		usageFail("unknown org %q", *org)
	}
	switch *scheme {
	case "none":
		base.Scheme = csalt.SchemeNone
	case "static":
		base.Scheme = csalt.SchemeStatic
	case "csalt-d":
		base.Scheme = csalt.SchemeCSALTD
	case "csalt-cd":
		base.Scheme = csalt.SchemeCSALTCD
	default:
		usageFail("unknown scheme %q", *scheme)
	}

	var cfgs []csalt.Config
	if *mixID != "" {
		for _, id := range strings.Split(*mixID, ",") {
			mix, err := csalt.MixByID(strings.TrimSpace(id))
			if err != nil {
				usageFail("%v", err)
			}
			cfg := base
			cfg.Mix = mix
			cfgs = append(cfgs, cfg)
		}
	} else {
		b1, err := csalt.ParseBenchmark(*vm1)
		if err != nil {
			usageFail("%v", err)
		}
		b2 := b1
		if *vm2 != "" {
			if b2, err = csalt.ParseBenchmark(*vm2); err != nil {
				usageFail("%v", err)
			}
		}
		cfg := base
		cfg.Mix = csalt.Mix{ID: fmt.Sprintf("%s_%s", b1, b2), VM1: b1, VM2: b2}
		cfgs = append(cfgs, cfg)
	}

	// Ctrl-C / SIGTERM cancel in-flight simulations cooperatively; finished
	// results still print and observed runs flush partial artifacts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results []*csalt.Results
	var runErr error
	if of.observed() {
		// Observed runs attach an observer to each freshly built system;
		// they run sequentially, each owning its output files.
		results, runErr = runObserved(ctx, cfgs, &of, *stallCyc, *check)
	} else {
		results, runErr = csalt.RunManyContext(ctx, cfgs, csalt.ManyOpts{
			Parallel:         *parallel,
			StallLimitCycles: *stallCyc,
			CheckInvariants:  *check,
		})
	}

	// Print every configuration that finished before reporting failures, so
	// an interrupted or partially failed multi-mix run is not all-or-nothing.
	printed := 0
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, res := range results {
			if res == nil {
				continue
			}
			if err := enc.Encode(res); err != nil {
				simFail("encoding results: %v", err)
			}
			printed++
		}
	} else {
		for i, res := range results {
			if res == nil {
				continue
			}
			if printed > 0 {
				fmt.Println()
			}
			report(cfgs[i], res, *history)
			printed++
		}
	}

	if runErr != nil {
		if errors.Is(runErr, context.Canceled) {
			fmt.Fprintf(os.Stderr, "interrupted: %d of %d simulations finished\n", printed, len(cfgs))
			os.Exit(130)
		}
		simFail("simulation failed: %v", runErr)
	}
}

// report prints one configuration's measurements in the tool's standard
// key-value layout.
func report(cfg csalt.Config, res *csalt.Results, history bool) {
	fmt.Printf("mix=%s org=%s scheme=%s cores=%d contexts=%d virtualized=%v\n",
		cfg.Mix.ID, res.OrgName, res.SchemeName, cfg.Cores, cfg.ContextsPerCore, cfg.Virtualized)
	fmt.Printf("IPC (geomean)            %8.4f\n", res.IPCGeomean)
	fmt.Printf("instructions measured    %8d\n", res.Instructions)
	fmt.Printf("L1 TLB MPKI              %8.2f\n", res.L1TLBMPKI)
	fmt.Printf("L2 TLB MPKI              %8.2f\n", res.L2TLBMPKI)
	fmt.Printf("translation cyc/L2 miss  %8.1f\n", res.WalkCyclesPerL2Miss)
	fmt.Printf("page walks               %8d (%.1f%% eliminated)\n", res.PageWalks, 100*res.WalksEliminated)
	fmt.Printf("L2 D$ MPKI               %8.2f (data-only %.2f)\n", res.L2DMPKI, res.L2DataMPKI)
	fmt.Printf("L3 D$ MPKI               %8.2f (data-only %.2f)\n", res.L3DMPKI, res.L3DataMPKI)
	fmt.Printf("TLB occupancy L2/L3      %7.1f%% / %.1f%%\n", 100*res.TLBOccupancyL2, 100*res.TLBOccupancyL3)
	if cfg.Org == csalt.OrgPOM {
		fmt.Printf("POM-TLB hit rate         %7.1f%%\n", 100*res.POMHitRate)
	}
	fmt.Printf("context switches         %8d\n", res.ContextSwitches)
	fmt.Printf("translation stall frac   %7.1f%%\n", 100*res.TranslateStallFrac)
	fmt.Printf("pages touched            %8d\n", res.TouchedPages)

	if history {
		fmt.Println("\nepoch  L2 TLB frac  L3 TLB frac")
		n := len(res.PartitionHistoryL3)
		if len(res.PartitionHistoryL2) < n {
			n = len(res.PartitionHistoryL2)
		}
		for i := 0; i < n; i++ {
			fmt.Printf("%5d  %11.2f  %11.2f\n", res.PartitionHistoryL3[i].Epoch,
				res.PartitionHistoryL2[i].TLBFraction, res.PartitionHistoryL3[i].TLBFraction)
		}
	}
}
