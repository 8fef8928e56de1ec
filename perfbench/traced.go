package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/csalt-sim/csalt/internal/cpu"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/trace"
	"github.com/csalt-sim/csalt/internal/workload"
)

// sampleMask sets the share of seam calls that are timed: a call is timed
// when the hash of its index has these bits clear (1 in 16). Clock reads
// cost about as much as the shortest calls they time, so timing every call
// would distort the run; counts stay exact regardless. Hashing the index
// instead of taking every 16th call keeps the sample from locking onto a
// generator's periodic access pattern.
const sampleMask = 15

func timedCall(i uint64) bool {
	// splitmix64 finaliser.
	i += 0x9e3779b97f4a7c15
	i = (i ^ i>>30) * 0xbf58476d1ce4e5b9
	i = (i ^ i>>27) * 0x94d049bb133111eb
	return (i^i>>31)&sampleMask == 0
}

// seam is one boundary's exact call count and the host time of its timed
// sample.
type seam struct {
	calls, timed uint64
	ns           float64
}

// record charges one timed call from three clock reads: t0 and t1 back to
// back, then t2 after the call. The empty interval t1-t0 estimates, in the
// same context, what the clock reads themselves add to t2-t1, so the
// difference is the call's own cost.
func (s *seam) record(t0, t1, t2 time.Duration) {
	s.timed++
	s.ns += float64((t2 - t1) - (t1 - t0))
}

// clockBase anchors the probes' clock reads: time.Since on a time.Time that
// carries a monotonic reading costs one monotonic clock read, about half
// of time.Now.
var clockBase = time.Now()

func clock() time.Duration { return time.Since(clockBase) }

// total estimates the seam's host time over all calls, in ns.
func (s *seam) total() float64 {
	if s.timed == 0 {
		return 0
	}
	return s.ns * float64(s.calls) / float64(s.timed)
}

func (s *seam) merge(o seam) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// seams holds the three simulator seams the traced run times.
type seams struct {
	translate, data, next seam
	blocking              uint64 // Translate calls that left the TLB hierarchy
}

func (s *seams) merge(o *seams) {
	s.translate.merge(o.translate)
	s.data.merge(o.data)
	s.next.merge(o.next)
	s.blocking += o.blocking
}

// probe sits between each core and the memory system and sources: it
// implements cpu.Translator and cpu.DataPath over System.Mem(), wraps
// every generator, counts every call, times a deterministic sample, and
// can record the reference stream for the layer replays.
type probe struct {
	seams
	tr  cpu.Translator
	dp  cpu.DataPath
	rec *[]step // non-nil: record every step
}

// Translate implements cpu.Translator.
func (p *probe) Translate(now uint64, v mem.VAddr, asid mem.ASID, coreID int) (uint64, mem.PAddr, bool, error) {
	p.translate.calls++
	if p.rec != nil {
		*p.rec = append(*p.rec, step{v: v, asid: asid, core: uint16(coreID)})
	}
	var (
		done     uint64
		pa       mem.PAddr
		blocking bool
		err      error
	)
	if timedCall(p.translate.calls) {
		t0, t1 := clock(), clock()
		done, pa, blocking, err = p.tr.Translate(now, v, asid, coreID)
		p.translate.record(t0, t1, clock())
	} else {
		done, pa, blocking, err = p.tr.Translate(now, v, asid, coreID)
	}
	if blocking {
		p.blocking++
	}
	return done, pa, blocking, err
}

// AccessData implements cpu.DataPath.
func (p *probe) AccessData(now uint64, pa mem.PAddr, write bool, coreID int) uint64 {
	p.data.calls++
	if p.rec != nil {
		last := &(*p.rec)[len(*p.rec)-1]
		last.pa, last.write = pa, write
	}
	if !timedCall(p.data.calls) {
		return p.dp.AccessData(now, pa, write, coreID)
	}
	t0, t1 := clock(), clock()
	done := p.dp.AccessData(now, pa, write, coreID)
	p.data.record(t0, t1, clock())
	return done
}

// timedSource wraps one generator, charging its calls to the probe.
type timedSource struct {
	src trace.Source
	p   *probe
}

// Next implements trace.Source.
func (t *timedSource) Next() (trace.Record, bool) {
	s := &t.p.next
	s.calls++
	if !timedCall(s.calls) {
		return t.src.Next()
	}
	t0, t1 := clock(), clock()
	r, ok := t.src.Next()
	s.record(t0, t1, clock())
	return r, ok
}

// generators rebuilds, for core c, the sources sim.New gave each context,
// from the same benchmark, seed and base-address formula.
func generators(cfg sim.Config, c int) ([]cpu.Context, error) {
	if cfg.TraceDir != "" {
		return nil, fmt.Errorf("perfbench: trace-file replay configs cannot be instrumented")
	}
	ctxs := make([]cpu.Context, cfg.ContextsPerCore)
	for i := range ctxs {
		bench := cfg.Mix.VM1
		if i%2 == 1 {
			bench = cfg.Mix.VM2
		}
		asid := mem.ASID(i + 1)
		src, err := workload.New(bench, workload.Params{
			ASID:  asid,
			Base:  mem.VAddr(0x10_0000_0000 + uint64(c)<<36),
			Seed:  cfg.Seed + uint64(i)*1_000_003 + uint64(c)*7919,
			Scale: cfg.Scale,
		})
		if err != nil {
			return nil, err
		}
		ctxs[i] = cpu.Context{Source: src, ASID: asid}
	}
	return ctxs, nil
}

// instrument replaces every core of a freshly built system with one whose
// translator, data path and sources go through the probe. System.Cores
// returns the live slice, so the run uses the replacements.
func (p *probe) instrument(sys *sim.System) error {
	cfg := sys.Config()
	p.tr, p.dp = sys.Mem(), sys.Mem()
	cores := sys.Cores()
	for c := range cores {
		ctxs, err := generators(cfg, c)
		if err != nil {
			return err
		}
		for i := range ctxs {
			ctxs[i].Source = &timedSource{src: ctxs[i].Source, p: p}
		}
		nc, err := cpu.New(cpu.Config{
			ID:             c,
			CPIx100:        cfg.CPIx100,
			MLPWindow:      cfg.MLPWindow,
			SwitchInterval: cfg.SwitchIntervalCycles,
		}, ctxs, p, p)
		if err != nil {
			return err
		}
		cores[c] = nc
	}
	return nil
}

// footprintPages counts the pages sim.New prewarms for cfg, through the
// generators' trace.Footprinter.
func footprintPages(cfg sim.Config) (float64, error) {
	if cfg.NoPrewarm {
		return 0, nil
	}
	var n float64
	for c := 0; c < cfg.Cores; c++ {
		ctxs, err := generators(cfg, c)
		if err != nil {
			return 0, err
		}
		for _, ctx := range ctxs {
			if fp, ok := ctx.Source.(trace.Footprinter); ok {
				fp.VisitFootprint(func(mem.VAddr) { n++ })
			}
		}
	}
	return n, nil
}

// profiledSpan collects CPU-profile samples and process CPU time over one
// or more intervals.
type profiledSpan struct {
	split *profileSplit
	buf   bytes.Buffer
	cpu0  float64
	cpuNS float64 // process CPU time inside the intervals
}

func newProfiledSpan() *profiledSpan { return &profiledSpan{split: newProfileSplit()} }

func (ps *profiledSpan) start() error {
	ps.buf.Reset()
	ps.cpu0 = processCPU()
	return startProfile(&ps.buf)
}

func (ps *profiledSpan) stop() error {
	pprof.StopCPUProfile()
	ps.cpuNS += processCPU() - ps.cpu0
	return ps.split.add(ps.buf.Bytes())
}

// processCPU returns the process's user plus system CPU time in ns.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}
