package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/csalt-sim/csalt"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/sim"
)

// obsFlags groups the observability and profiling flags; see
// OBSERVABILITY.md for the full reference.
type obsFlags struct {
	metricsOut  string
	traceOut    string
	traceFormat string
	traceEvents string
	epochCSV    string
	epochEvery  uint64
	epochCap    int
	attrOut     string
	heatmapCSV  string
	cpuProfile  string
	memProfile  string
}

func registerObsFlags(f *obsFlags) {
	flag.StringVar(&f.metricsOut, "metrics-out", "", "write the end-of-run metrics snapshot (JSON) to this file ('-' for stdout)")
	flag.StringVar(&f.traceOut, "trace-out", "", "write the structured event trace to this file")
	flag.StringVar(&f.traceFormat, "trace-format", "jsonl", "trace encoding: jsonl | chrome")
	flag.StringVar(&f.traceEvents, "trace-events", "all", "comma-separated trace enable list: context_switch,repartition,pom_fill,pom_evict,pom,all,none")
	flag.StringVar(&f.epochCSV, "epoch-csv", "", "write the epoch time-series (CSV) to this file ('-' for stdout)")
	flag.StringVar(&f.attrOut, "attr-out", "", "attach the cycle/miss-attribution plane and write its report (JSON) to this file ('-' for stdout)")
	flag.StringVar(&f.heatmapCSV, "heatmap-csv", "", "write the attribution plane's per-set occupancy/contention heatmaps (CSV) to this file ('-' for stdout)")
	flag.Uint64Var(&f.epochEvery, "epoch-every", 0, "memory references between epoch samples (0 = auto from run length)")
	flag.IntVar(&f.epochCap, "epoch-cap", 0, "epoch sample buffer capacity before downsampling (0 = default)")
	flag.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// observed reports whether any per-run observability output was requested
// (profiling alone does not change the execution path).
func (f *obsFlags) observed() bool {
	return f.metricsOut != "" || f.traceOut != "" || f.epochCSV != "" ||
		f.attrOut != "" || f.heatmapCSV != ""
}

// suffixPath inserts a mix suffix before the path's extension:
// trace.jsonl + gups → trace_gups.jsonl. Used when several mixes each need
// their own output file.
func suffixPath(path, suffix string) string {
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return path[:i] + "_" + suffix + path[i:]
	}
	return path + "_" + suffix
}

// outPath resolves the per-mix output path: with one configuration the
// flag value is used verbatim, with several each mix gets a suffixed file.
func outPath(path, mixID string, many bool) string {
	if path == "" || !many {
		return path
	}
	return suffixPath(path, mixID)
}

// runObserved executes the configurations sequentially, each with its own
// observer, and writes the requested artifacts. Sequential because each
// run owns its output files; observability runs are diagnostic, not
// sweeps. A cancelled run still flushes whatever artifacts it accumulated
// (a partial trace of a run you had to kill is exactly the diagnostic you
// wanted), and remaining configurations are skipped with nil result slots.
func runObserved(ctx context.Context, cfgs []csalt.Config, f *obsFlags, stallLimit uint64, check bool) ([]*csalt.Results, error) {
	format, err := obs.ParseFormat(f.traceFormat)
	if err != nil {
		return nil, err
	}
	mask, err := obs.ParseEvents(f.traceEvents)
	if err != nil {
		return nil, err
	}

	many := len(cfgs) > 1
	results := make([]*csalt.Results, len(cfgs))
	for i, cfg := range cfgs {
		if ctx.Err() != nil {
			return results, fmt.Errorf("observed run interrupted: %w", context.Cause(ctx))
		}
		res, err := runOneObserved(ctx, cfg, f, format, mask, many, stallLimit, check)
		if err != nil {
			return results, fmt.Errorf("mix %s: %w", cfg.Mix.ID, err)
		}
		results[i] = res
	}
	return results, nil
}

// runOneObserved runs cfg through an experiment.Runner, which builds the
// system, arms the watchdog and checkers, and turns a simulator panic into
// an *experiment.PanicError; its Observe hook attaches the observer and the
// attribution plane to the system it builds.
func runOneObserved(ctx context.Context, cfg csalt.Config, f *obsFlags, format obs.Format, mask obs.EventMask, many bool, stallLimit uint64, check bool) (*csalt.Results, error) {
	o := &obs.Observer{SampleEvery: f.epochEvery}
	if f.traceOut != "" {
		traceFile, err := createFile(outPath(f.traceOut, cfg.Mix.ID, many))
		if err != nil {
			return nil, err
		}
		defer traceFile.Close()
		o.Tracer = obs.NewTracer(traceFile, format, mask)
	}
	if f.metricsOut != "" {
		o.Registry = obs.NewRegistry()
	}
	if f.epochCSV != "" {
		o.Sampler = obs.NewSampler(sim.SamplerColumns(), f.epochCap)
	}

	r := experiment.NewRunner(experiment.Scale{})
	r.StallLimit = stallLimit
	r.CheckInvariants = check
	var built bool
	var plane *introspect.Plane
	r.Observe = func(sys *sim.System) {
		built = true
		sys.AttachObserver(o)
		// Attribution attaches after the observer so switch-damage/phase
		// events reach the trace and introspect.* counters reach the
		// registry.
		if f.attrOut != "" || f.heatmapCSV != "" {
			plane = introspect.NewPlane(introspect.Config{Cores: cfg.Cores})
			sys.AttachIntrospection(plane)
		}
	}
	res, runErr := r.RunContext(ctx, cfg)
	if !built {
		return nil, runErr
	}

	// Flush artifacts even when the run was cut short or panicked: the
	// events, metrics and epoch samples up to that point are already in the
	// observer and are often the whole reason the run was observed.
	if o.Tracer != nil {
		if err := o.Tracer.Close(); err != nil && runErr == nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	if f.metricsOut != "" {
		if err := writeTo(outPath(f.metricsOut, cfg.Mix.ID, many), o.Registry.Snapshot().WriteJSON); err != nil && runErr == nil {
			return nil, fmt.Errorf("writing metrics: %w", err)
		}
	}
	if f.epochCSV != "" {
		if err := writeTo(outPath(f.epochCSV, cfg.Mix.ID, many), o.Sampler.WriteCSV); err != nil && runErr == nil {
			return nil, fmt.Errorf("writing epoch CSV: %w", err)
		}
	}
	if f.attrOut != "" {
		if err := writeTo(outPath(f.attrOut, cfg.Mix.ID, many), plane.WriteReport); err != nil && runErr == nil {
			return nil, fmt.Errorf("writing attribution report: %w", err)
		}
	}
	if f.heatmapCSV != "" {
		if err := writeTo(outPath(f.heatmapCSV, cfg.Mix.ID, many), plane.WriteHeatmapCSV); err != nil && runErr == nil {
			return nil, fmt.Errorf("writing heatmap CSV: %w", err)
		}
	}
	return res, runErr
}

// writeTo streams write(w) to path ('-' for stdout).
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	out, err := createFile(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// createFile opens path for writing, creating missing parent directories
// so `-trace-out out/run/trace.jsonl` works without a prior mkdir.
func createFile(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}
