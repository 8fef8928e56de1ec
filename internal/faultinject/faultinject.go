// Package faultinject is the deterministic fault-injection plane behind
// the -chaos / -chaos-sweep machinery: a parsed schedule of injection
// rules plus a concurrency-safe Plane that the instrumented seams
// (checkpoint store, experiment runner, sim run loop) consult at each
// injection point.
//
// Determinism is the design constraint. A firing decision depends only on
// the schedule and on the rule's matching-call ordinal — never on
// wall-clock time, goroutine identity or map order — so a single-worker
// sweep replays the exact same fault sequence on every run with the same
// schedule, and the firing log (sorted, see Log) is directly comparable
// across runs. Under parallel workers the call ordinals themselves depend
// on worker interleaving, so only the *outcome contract* holds (every run
// completes cleanly or fails classified); the chaos determinism test pins
// one worker (see ROBUSTNESS.md, "Fault injection").
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point identifies one injection seam. The constants below are the seams
// wired through the repository; the plane itself treats points as opaque.
type Point string

// The instrumented seams.
const (
	// StoreWrite fails a checkpoint-store append before any byte is
	// written (an I/O error surfaced from write(2)).
	StoreWrite Point = "checkpoint.write"
	// StoreTorn tears a checkpoint-store append: half the record reaches
	// the file (as after a crash mid-write) and the append reports an
	// error. -resume truncates the torn tail and re-simulates.
	StoreTorn Point = "store.torn"
	// StoreFsync fails the fsync after a successful append.
	StoreFsync Point = "checkpoint.fsync"
	// JobPanic panics inside the matching job's simulation, exercising
	// the engine's PanicError isolation.
	JobPanic Point = "job.panic"
	// JobTransient fails the matching job's attempt with a
	// TransientError, exercising the bounded-retry path.
	JobTransient Point = "job.transient"
	// WorkerStall wedges the matching job's worker for the rule's
	// duration, so the engine's per-job wall-clock deadline must fire.
	WorkerStall Point = "worker.stall"
	// SimStall freezes the simulated retirement counter as the in-sim
	// forward-progress watchdog sees it, so the genuine StallError
	// detection-and-dump path fires.
	SimStall Point = "sim.stall"
	// SimCorrupt corrupts a model counter mid-run so an invariant
	// checker (internal/invariant) must catch it.
	SimCorrupt Point = "sim.corrupt"
)

// Rule is one clause of a schedule: fire at Point, for keys containing
// Match, on the Nth eligible call per key, at most Count times in total.
type Rule struct {
	Point Point
	// Match restricts the rule to keys containing this substring; empty
	// matches every key.
	Match string
	// Nth fires on the Nth matching call of this rule (1-based, counted
	// across all keys); 0 means every matching call is eligible.
	Nth int
	// Count caps total firings across all keys; <= 0 means 1.
	Count int
	// Dur is the stall duration for duration-typed points.
	Dur time.Duration
}

// String renders the rule back into schedule-DSL form.
func (r Rule) String() string {
	spec := r.Match
	if spec == "" {
		if r.Dur > 0 {
			spec = fmt.Sprintf("%dx%s", r.max(), r.Dur)
		} else {
			spec = strconv.Itoa(r.max())
		}
	}
	if r.Nth > 0 {
		spec += "@" + strconv.Itoa(r.Nth)
	}
	return string(r.Point) + ":" + spec
}

func (r Rule) max() int {
	if r.Count <= 0 {
		return 1
	}
	return r.Count
}

// Schedule is an ordered set of rules; order matters only for rendering.
type Schedule []Rule

// String renders the schedule in the DSL accepted by Parse.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// knownPoints gates Parse so a typo in a -chaos flag fails loudly instead
// of silently never firing.
var knownPoints = map[Point]bool{
	StoreWrite: true, StoreTorn: true, StoreFsync: true,
	JobPanic: true, JobTransient: true, WorkerStall: true,
	SimStall: true, SimCorrupt: true,
}

// Parse reads the schedule DSL: semicolon-separated `point:spec` clauses,
// where spec is one of
//
//	N          fire on the first N matching calls                 store.torn:1
//	NxDUR      like N, with a stall duration                      worker.stall:2x50ms
//	match      fire for keys containing match, once               job.panic:fig3/gups
//	err        alias for an unrestricted match (store points)     checkpoint.write:err
//
// and any spec may append `@K` to fire on the Kth matching call instead
// of the first (checkpoint.write:err@3 = fail the third append).
func Parse(s string) (Schedule, error) {
	var sched Schedule
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		point, spec, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q is not point:spec", clause)
		}
		r := Rule{Point: Point(point)}
		if !knownPoints[r.Point] {
			return nil, fmt.Errorf("faultinject: unknown injection point %q", point)
		}
		// Without @K every matching call is eligible (Nth 0), so a count
		// budget of N fires on the first N matching calls; with @K the
		// rule fires exactly on the Kth matching call.
		if body, nth, ok := strings.Cut(spec, "@"); ok {
			n, err := strconv.Atoi(nth)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: bad occurrence %q in %q", nth, clause)
			}
			r.Nth = n
			spec = body
		}
		switch {
		case spec == "" || spec == "err":
			r.Count = 1
		default:
			if cnt, dur, ok := strings.Cut(spec, "x"); ok {
				n, nerr := strconv.Atoi(cnt)
				d, derr := time.ParseDuration(dur)
				if nerr == nil && derr == nil {
					if n < 1 || d <= 0 {
						return nil, fmt.Errorf("faultinject: bad count/duration in %q", clause)
					}
					r.Count, r.Dur = n, d
					break
				}
			}
			if n, err := strconv.Atoi(spec); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("faultinject: count must be >= 1 in %q", clause)
				}
				r.Count = n
				break
			}
			// A match substring (job key fragment), firing once.
			r.Match = spec
			r.Count = 1
		}
		sched = append(sched, r)
	}
	return sched, nil
}

// MustParse is Parse for trusted literals (tests, generators).
func MustParse(s string) Schedule {
	sched, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sched
}

// Firing records one injected fault, for determinism assertions and
// seam-coverage verification.
type Firing struct {
	Point Point
	Key   string
	Seq   int           // the rule's matching-call ordinal that fired (1-based)
	Dur   time.Duration // duration rules only
}

// String renders "point key#seq".
func (f Firing) String() string {
	s := fmt.Sprintf("%s %s#%d", f.Point, f.Key, f.Seq)
	if f.Dur > 0 {
		s += " " + f.Dur.String()
	}
	return s
}

// ruleState tracks one rule's matching-call count and its firing budget.
type ruleState struct {
	Rule
	calls int
	fired int
}

// Plane is the live injection plane: seams call Fire at each injection
// point and act on the decision. A nil *Plane is valid and never fires —
// the zero-cost production configuration.
type Plane struct {
	mu    sync.Mutex
	rules []*ruleState
	log   []Firing
}

// New builds a plane from a schedule. New(nil) is a plane that never
// fires but still supports Log (useful for chaos-free resume phases).
func New(s Schedule) *Plane {
	p := &Plane{}
	for _, r := range s {
		p.rules = append(p.rules, &ruleState{Rule: r})
	}
	return p
}

// Fire asks the plane whether a fault is scheduled for this call of the
// given point and key. The decision depends only on the schedule and the
// rule's matching-call count; when it fires, the returned Firing carries
// the rule's duration. Safe for concurrent use; a nil plane never fires.
func (p *Plane) Fire(point Point, key string) (Firing, bool) {
	if p == nil {
		return Firing{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.Point != point {
			continue
		}
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		r.calls++
		n := r.calls
		if r.Nth > 0 && n != r.Nth {
			continue
		}
		if r.fired >= r.max() {
			continue
		}
		r.fired++
		f := Firing{Point: point, Key: key, Seq: n, Dur: r.Dur}
		p.log = append(p.log, f)
		return f, true
	}
	return Firing{}, false
}

// Log returns every firing so far, sorted by (point, key, seq) so logs
// from runs with different goroutine interleavings compare equal whenever
// the same faults fired.
func (p *Plane) Log() []Firing {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := append([]Firing(nil), p.log...)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Point != out[j].Point {
			return out[i].Point < out[j].Point
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Fired reports how many faults the plane has injected.
func (p *Plane) Fired() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

// LogString renders the sorted firing log one firing per line.
func (p *Plane) LogString() string {
	var b strings.Builder
	for _, f := range p.Log() {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// rng is a splitmix64 generator — tiny, seedable and stable across Go
// versions, unlike math/rand's unspecified stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate derives a small random schedule from a seed — the unit of the
// chaos sweep. The same seed always yields the same schedule. Schedules
// draw 1–3 rules from a menu covering every seam; durations are sized for
// the sweep harness's tiny fig3 jobs (see internal/chaos).
func Generate(seed uint64) Schedule {
	r := &rng{s: seed * 0x2545F4914F6CDD1D}
	r.next() // decorrelate small seeds
	menu := []func() Rule{
		// Store points: the Nth append across the sweep.
		func() Rule { return Rule{Point: StoreWrite, Nth: 1 + r.intn(3), Count: 1} },
		func() Rule { return Rule{Point: StoreFsync, Nth: 1 + r.intn(3), Count: 1} },
		func() Rule { return Rule{Point: StoreTorn, Nth: 1 + r.intn(3), Count: 1} },
		// Job points: the Nth job simulated (fig3 has five).
		func() Rule { return Rule{Point: JobPanic, Nth: 1 + r.intn(4), Count: 1} },
		func() Rule { return Rule{Point: JobTransient, Count: 1 + r.intn(2)} },
		func() Rule { return Rule{Point: WorkerStall, Nth: 1 + r.intn(3), Count: 1, Dur: time.Minute} },
		// Run-loop points: the Nth watchdog poll across jobs. The corrupt
		// point aims past the first job's warmup boundary — a counter bumped
		// pre-warmup is wiped by the measurement-phase stats reset (a clean
		// run either way, just a less interesting one).
		func() Rule { return Rule{Point: SimStall, Nth: 1 + r.intn(8), Count: 1} },
		func() Rule { return Rule{Point: SimCorrupt, Nth: 10 + r.intn(10), Count: 1} },
	}
	n := 1 + r.intn(3)
	var sched Schedule
	used := map[Point]bool{}
	for len(sched) < n {
		rule := menu[r.intn(len(menu))]()
		if used[rule.Point] {
			continue
		}
		used[rule.Point] = true
		sched = append(sched, rule)
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].Point < sched[j].Point })
	return sched
}
