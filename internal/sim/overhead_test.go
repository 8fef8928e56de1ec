package sim

import (
	"fmt"
	"testing"
	"time"

	"github.com/csalt-sim/csalt/internal/introspect"
)

// maxInvariantOverheadFrac is the acceptance bar for the cheap always-on
// invariant checkers: their end-of-run conservation pass must cost less
// than 2% of probe throughput, or the safety net is too expensive to
// leave on by default.
const maxInvariantOverheadFrac = 0.02

// measureInvariantOverhead prices the always-on invariant pass against
// probe throughput. The pass runs exactly once per simulation (at end of
// run), so the honest overhead fraction is (cost of one pass) / (wall
// time of one run) — and that is what this measures: `rounds` timed
// probe runs (best — minimum — wall time wins), then the conservation
// pass iterated enough times to amortise timer noise out of its
// per-pass cost. Differencing full checked-vs-unchecked run times
// cannot resolve a 2% bar on a noisy host; timing the pass directly
// can. Note the measurement prices only the default checking level;
// builds under the `invariants` tag also arm periodic structural audits,
// which are opt-in precisely because they are allowed to cost more.
func measureInvariantOverhead(refsPerCore uint64, rounds int) (float64, error) {
	var (
		runTime time.Duration
		sys     *System
	)
	for i := 0; i <= rounds; i++ {
		s, err := New(probeConfig(refsPerCore))
		if err != nil {
			return 0, fmt.Errorf("building overhead-probe system: %w", err)
		}
		start := time.Now()
		if _, err := s.Run(); err != nil {
			return 0, fmt.Errorf("overhead-probe run: %w", err)
		}
		d := time.Since(start)
		if i == 0 {
			continue // warmup run absorbs cold caches, untimed
		}
		if runTime == 0 || d < runTime {
			runTime = d
		}
		sys = s
	}

	// Amortise the per-pass cost over many passes on the finished system;
	// the closures read settled counters, so repeated passes are
	// idempotent and each prices exactly what the end of a run pays.
	const passes = 1000
	start := time.Now()
	for i := 0; i < passes; i++ {
		if err := sys.CheckInvariants(); err != nil {
			return 0, fmt.Errorf("overhead probe tripped an invariant: %w", err)
		}
	}
	perPass := time.Since(start) / passes
	return float64(perPass) / float64(runTime), nil
}

// maxIntrospectOverheadFrac is the acceptance bar for the attribution
// plane's disabled path: the nil-guard hook sites threaded through every
// hot loop must cost less than 2% of probe throughput when no plane is
// attached, the same contract the always-on invariant pass meets.
const maxIntrospectOverheadFrac = 0.02

// nilGuardSink defeats constant propagation in the guard-pricing loop:
// the compiler cannot prove a package-level pointer nil, so the inlined
// nil check (the exact disabled-path cost of a hook site) is emitted.
var nilGuardSink *introspect.CoreProbe

// measureIntrospectOverhead prices the attribution plane's disabled
// path. The hook sites the plane threads through the hot loops reduce,
// when no plane is attached, to one nil compare each — too cheap to
// resolve by differencing full run times on a noisy host. So, mirroring
// the invariant gate's amortise-the-cheap-thing approach, this measures
// both factors directly:
//
//   - the per-site price: a tight loop over a nil-receiver hook call
//     whose receiver the compiler cannot prove nil;
//   - the sites reached per run: an attached instrumentation run counts
//     every hook the probe workload actually fires (structure lookups,
//     fills and evictions, walks, DRAM queue observations) plus the
//     constant per-reference core and run-loop guards.
//
// The returned fraction is sites × price / (best-of-rounds detached run
// wall time).
func measureIntrospectOverhead(refsPerCore uint64, rounds int) (float64, error) {
	var runTime time.Duration
	for i := 0; i <= rounds; i++ {
		s, err := New(probeConfig(refsPerCore))
		if err != nil {
			return 0, fmt.Errorf("building overhead-probe system: %w", err)
		}
		start := time.Now()
		if _, err := s.Run(); err != nil {
			return 0, fmt.Errorf("overhead-probe run: %w", err)
		}
		d := time.Since(start)
		if i == 0 {
			continue // warmup run absorbs cold caches, untimed
		}
		if runTime == 0 || d < runTime {
			runTime = d
		}
	}

	// Count the hook sites one probe run reaches, using an attached run
	// of the identical configuration as the census taker.
	cfg := probeConfig(refsPerCore)
	sys, err := New(cfg)
	if err != nil {
		return 0, fmt.Errorf("building census system: %w", err)
	}
	plane := introspect.NewPlane(introspect.Config{Cores: cfg.Cores})
	sys.AttachIntrospection(plane)
	if _, err := sys.Run(); err != nil {
		return 0, fmt.Errorf("census run: %w", err)
	}
	rep := plane.Report()
	var sites uint64
	for _, s := range rep.Structures {
		// Lookup hooks fire on every access, fill hooks on every miss
		// refill, evict hooks on every displacement.
		sites += s.Hits + 2*s.Misses + s.Evictions
	}
	for _, w := range rep.Walkers {
		for _, d := range w.ByDepth {
			sites += d.Walks
		}
	}
	for _, d := range rep.DRAM {
		for _, n := range d.QueueWaitAccesses {
			sites += n
		}
	}
	// Per-reference constants: two advanceNonMem guards, the translate-
	// and data-stall guards, the Translate/Access register stores, and
	// the run loop's phase poll.
	refs := refsPerCore * uint64(cfg.Cores)
	sites += 7 * refs

	// Price one disabled hook evaluation. Each call inlines to the hook's
	// nil check; predictable and register-resident, like the real sites,
	// so this is the honest (small) per-site cost. The body is unrolled
	// eightfold so the price reflects the guards, not the loop's carried
	// branch — a bare one-check-per-iteration loop is dominated by its
	// back edge, whose cost swings ~2x with the binary's code layout and
	// would spuriously fail the bar after unrelated changes. Best of
	// three passes, like runTime above, so scheduler noise on a loaded
	// host cannot inflate the price either.
	const iters = 1 << 20
	var priceTime time.Duration
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
			nilGuardSink.Compute(1)
		}
		if d := time.Since(start); priceTime == 0 || d < priceTime {
			priceTime = d
		}
	}
	perSite := float64(priceTime) / (8 * iters) // fractional ns per guard
	return float64(sites) * perSite / float64(runTime), nil
}

// TestInvariantOverheadWithinBar prices the always-on invariant pass at a
// reduced probe size and holds it to the acceptance bar: the end-of-run
// conservation sweep is a handful of counter comparisons, so even on a
// sub-second run its cost must stay under maxInvariantOverheadFrac.
func TestInvariantOverheadWithinBar(t *testing.T) {
	frac, err := measureInvariantOverhead(60_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac > maxInvariantOverheadFrac {
		t.Errorf("always-on invariant checks cost %.2f%% throughput, bar is %.0f%%",
			frac*100, maxInvariantOverheadFrac*100)
	}
	if frac < 0 {
		t.Errorf("overhead fraction %.4f negative — measurement broken", frac)
	}
}

// TestIntrospectOverheadWithinBar prices the attribution plane's
// disabled path at a reduced probe size and holds it to the acceptance
// bar: every hook site costs one nil compare when no plane is attached,
// so even multiplied by every structure access a run performs the total
// must stay under maxIntrospectOverheadFrac.
func TestIntrospectOverheadWithinBar(t *testing.T) {
	frac, err := measureIntrospectOverhead(60_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac > maxIntrospectOverheadFrac {
		t.Errorf("disabled introspection hooks cost %.3f%% throughput, bar is %.0f%%",
			frac*100, maxIntrospectOverheadFrac*100)
	}
	if frac <= 0 {
		t.Errorf("overhead fraction %.6f not positive — measurement broken", frac)
	}
}
