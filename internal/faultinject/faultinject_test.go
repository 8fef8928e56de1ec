package faultinject

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		{"checkpoint.write:err", Rule{Point: StoreWrite, Count: 1}},
		{"checkpoint.write:err@3", Rule{Point: StoreWrite, Nth: 3, Count: 1}},
		{"store.torn:1", Rule{Point: StoreTorn, Count: 1}},
		{"job.transient:2", Rule{Point: JobTransient, Count: 2}},
		{"worker.stall:2x50ms", Rule{Point: WorkerStall, Count: 2, Dur: 50 * time.Millisecond}},
		{"job.panic:fig3/gups", Rule{Point: JobPanic, Count: 1, Match: "fig3/gups"}},
		{"job.panic:gups@2", Rule{Point: JobPanic, Nth: 2, Count: 1, Match: "gups"}},
		{"sim.corrupt:", Rule{Point: SimCorrupt, Count: 1}},
	}
	for _, c := range cases {
		sched, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if len(sched) != 1 || sched[0] != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, sched, c.want)
		}
	}
}

func TestParseMultiClause(t *testing.T) {
	spec := "checkpoint.write:err@3;store.torn:1;job.panic:fig3/gups;worker.stall:2x50ms"
	sched, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 4 {
		t.Fatalf("got %d rules, want 4: %+v", len(sched), sched)
	}
	// Round-trip: rendered schedules re-parse to the same rules.
	again, err := Parse(sched.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sched.String(), err)
	}
	for i := range sched {
		if sched[i] != again[i] {
			t.Errorf("round-trip rule %d: %+v != %+v", i, sched[i], again[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"nosuch.point:1",   // unknown point
		"checkpoint.write", // no colon
		"store.torn:0",     // count < 1
		"store.torn:1@0",   // occurrence < 1
		"worker.stall:0x50ms",
		"worker.stall:2x-1s",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestFireNthAndCount(t *testing.T) {
	p := New(MustParse("checkpoint.write:err@3"))
	for i, want := range []bool{false, false, true, false, false} {
		_, ok := p.Fire(StoreWrite, "k")
		if ok != want {
			t.Errorf("call %d: fired=%v, want %v", i+1, ok, want)
		}
	}
	if p.Fired() != 1 {
		t.Errorf("Fired() = %d, want 1", p.Fired())
	}

	// Nth 0 (every call eligible) with a firing budget of 2.
	p = New(Schedule{{Point: JobTransient, Count: 2}})
	var fired int
	for i := 0; i < 5; i++ {
		if _, ok := p.Fire(JobTransient, "k"); ok {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("count-capped rule fired %d times, want 2", fired)
	}
}

func TestFireMatch(t *testing.T) {
	p := New(MustParse("job.panic:gups"))
	if _, ok := p.Fire(JobPanic, "canneal/pom/none"); ok {
		t.Error("fired on non-matching key")
	}
	f, ok := p.Fire(JobPanic, "gups/pom/none")
	if !ok {
		t.Fatal("did not fire on matching key")
	}
	if f.Key != "gups/pom/none" || f.Seq != 1 {
		t.Errorf("firing = %+v", f)
	}
	// Non-matching calls must not advance the ordinal.
	p = New(MustParse("job.panic:gups@2"))
	p.Fire(JobPanic, "canneal/x")
	p.Fire(JobPanic, "gups/x")
	if _, ok := p.Fire(JobPanic, "gups/y"); !ok {
		t.Error("second matching call did not fire for @2")
	}
}

func TestNilPlaneNeverFires(t *testing.T) {
	var p *Plane
	if _, ok := p.Fire(StoreWrite, "k"); ok {
		t.Error("nil plane fired")
	}
	if p.Fired() != 0 || p.Log() != nil {
		t.Error("nil plane has state")
	}
}

func TestFiringLogDeterminism(t *testing.T) {
	spec := "checkpoint.write:err@2;job.panic:1@3;sim.corrupt:1@5"
	runIt := func() string {
		p := New(MustParse(spec))
		for i := 0; i < 4; i++ {
			p.Fire(StoreWrite, "s")
		}
		for i := 0; i < 4; i++ {
			p.Fire(JobPanic, "j")
		}
		for i := 0; i < 8; i++ {
			p.Fire(SimCorrupt, "c")
		}
		return p.LogString()
	}
	a, b := runIt(), runIt()
	if a != b {
		t.Fatalf("same schedule, same calls, different logs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "checkpoint.write s#2") || !strings.Contains(a, "sim.corrupt c#5") {
		t.Errorf("unexpected log:\n%s", a)
	}
}

func TestGenerateStable(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %q != %q", seed, a, b)
		}
		if len(a) < 1 || len(a) > 3 {
			t.Fatalf("seed %d: %d rules", seed, len(a))
		}
		// Every generated schedule must survive the DSL round trip.
		if _, err := Parse(a.String()); err != nil {
			t.Fatalf("seed %d: generated schedule %q does not re-parse: %v", seed, a, err)
		}
	}
	if Generate(1).String() == Generate(2).String() && Generate(2).String() == Generate(3).String() {
		t.Error("distinct seeds all generated the same schedule")
	}
}

func TestGenerateCoversMenu(t *testing.T) {
	// Every known point must be reachable from the generator.
	seen := make(map[Point]bool)
	for seed := uint64(0); seed < 500; seed++ {
		for _, r := range Generate(seed) {
			seen[r.Point] = true
		}
	}
	for pt := range knownPoints {
		if !seen[pt] {
			t.Errorf("point %s never generated in 500 seeds", pt)
		}
	}
}

func TestFireConcurrent(t *testing.T) {
	p := New(Schedule{{Point: JobTransient, Count: 3}})
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fired int
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := p.Fire(JobTransient, "k"); ok {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 3 {
		t.Errorf("budget of 3 fired %d times under concurrency", fired)
	}
	if got := len(p.Log()); got != 3 {
		t.Errorf("log has %d entries, want 3", got)
	}
}
