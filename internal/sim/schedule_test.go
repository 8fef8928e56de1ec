package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/cpu"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/stats"
	"github.com/csalt-sim/csalt/internal/trace"
)

// The run loop's original schedule, kept only as the oracle for
// FuzzSchedule: before each batch it scanned every core struct twice, once
// for the pick and once for the runner-up, and after each step it scanned
// them all again until every core had passed the warm-up boundary.

// twoScanPick is the original pick: the active core with the smallest
// clock, the lowest index winning ties, then the smallest clock among the
// other active cores. next is -1 once every core has retired; haveOther is
// false when next is the only active core.
func twoScanPick(cores []*cpu.Core, target uint64) (next, other int, otherClock uint64, haveOther bool) {
	var nextCore *cpu.Core
	next = -1
	for i, c := range cores {
		if c.Stats.MemRefs.Value() >= target {
			continue
		}
		if nextCore == nil || c.Cycle() < nextCore.Cycle() {
			nextCore, next = c, i
		}
	}
	if nextCore == nil {
		return -1, -1, 0, false
	}
	otherClock, other = ^uint64(0), -1
	for i, c := range cores {
		if i == next || c.Stats.MemRefs.Value() >= target {
			continue
		}
		if cy := c.Cycle(); !haveOther || cy < otherClock {
			otherClock, other, haveOther = cy, i, true
		}
	}
	return next, other, otherClock, haveOther
}

// twoScanBatchEnds is the original batch-exit rule after core next steps:
// it has retired, or its clock has passed the runner-up's, or reached it
// with a higher index.
func twoScanBatchEnds(c *cpu.Core, next int, target uint64, other int, otherClock uint64, haveOther bool) bool {
	if c.Stats.MemRefs.Value() >= target {
		return true
	}
	cy := c.Cycle()
	return haveOther && (cy > otherClock || cy == otherClock && next > other)
}

// warmScan is the original warm-up test, which counted nothing: every core
// has reached warm. reached is the count the schedule keeps instead.
func warmScan(cores []*cpu.Core, warm uint64) (reached int, crossed bool) {
	crossed = true
	for _, c := range cores {
		if c.Stats.MemRefs.Value() < warm {
			crossed = false
		} else {
			reached++
		}
	}
	return reached, crossed
}

// clockScript is the translator and data path of FuzzSchedule's cores:
// every translation blocks for exactly adv cycles and every data access
// completes at once. With a base CPI of 0.01 and no non-memory
// instructions, a Step then moves the core's clock by adv and nothing else
// (the per-reference issue slot stays a fraction of a cycle for the few
// steps a fuzz core takes).
type clockScript struct{ adv uint64 }

func (s *clockScript) Translate(now uint64, _ mem.VAddr, _ mem.ASID, _ int) (uint64, mem.PAddr, bool, error) {
	return now + s.adv, 0, true, nil
}

func (s *clockScript) AccessData(now uint64, _ mem.PAddr, _ bool, _ int) uint64 { return now }

// newScriptedCore builds a core over an endless scripted source, driven by
// script.
func newScriptedCore(id int, script *clockScript) *cpu.Core {
	src := trace.NewLoopSource([]trace.Record{{Kind: trace.Store}})
	return cpu.MustNew(cpu.Config{ID: id, CPIx100: 1}, []cpu.Context{{Source: src}}, script, script)
}

// stepBy steps c once, moving its clock by adv and its retired-reference
// count by one.
func stepBy(t *testing.T, c *cpu.Core, script *clockScript, adv uint64) {
	t.Helper()
	script.adv = adv
	if ok, err := c.Step(); !ok || err != nil {
		t.Fatalf("core %d step: ok %v, err %v", c.ID(), ok, err)
	}
}

// fuzzClock turns a fuzz byte into a clock value or increment: mostly 0-3,
// so that equal clocks are common, or a large value when the top bit is
// set, so that one core runs far ahead of the others.
func fuzzClock(b byte) uint64 {
	if b&0x80 != 0 {
		return uint64(b&0x7f) << 20
	}
	return uint64(b & 3)
}

// FuzzSchedule plays a whole run loop through the packed schedule — the
// first pick, then for every batch the runner-up, each step's slot update
// and the batch-exit decision — on 1 to 8 cores whose clocks and reference
// counts the input chooses, and checks each decision against the original
// two-scan rule: the next core, the runner-up and its clock, whether the
// batch goes on, and the warm-up count against the warm-up scan. Each core
// starts part-way through (some retired, some past warm-up): one step
// moves its clock to the chosen value, then its reference counter is set.
// The seed corpus runs in every `go test`.
func FuzzSchedule(f *testing.F) {
	// Input: cores, run length, warm-up, then two bytes per core (clock,
	// references retired), then one clock increment per step.
	f.Add([]byte{0, 3, 1, 0, 0, 1, 2})                                           // one core
	f.Add([]byte{7, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // 8 equal clocks, as every run starts
	f.Add([]byte{7, 4, 1, 1, 4, 2, 0, 1, 4, 3, 1, 0, 4, 2, 2, 1, 4, 0, 3, 1, 0, 2, 3, 0, 1})
	f.Add([]byte{5, 3, 0, 0, 3, 0, 3, 2, 0, 0, 3, 0, 3, 0, 3, 0, 1, 0, 2})    // one active core among retired ones
	f.Add([]byte{3, 5, 4, 0x85, 1, 0, 2, 0x81, 3, 0, 4, 0x90, 0, 1, 0, 2})    // one core far ahead
	f.Add([]byte{7, 5, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0}) // ties at mid-run
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		n := 1 + int(in[0]%8)
		target := 1 + uint64(in[1]%6)
		warm := uint64(in[2]) % target
		in = in[3:]
		next := func() byte {
			if len(in) == 0 {
				return 1
			}
			b := in[0]
			in = in[1:]
			return b
		}
		script := &clockScript{}
		cores := make([]*cpu.Core, n)
		for i := range cores {
			cores[i] = newScriptedCore(i, script)
			stepBy(t, cores[i], script, fuzzClock(next()))
			cores[i].Stats.MemRefs = stats.Counter(uint64(next()) % (target + 1))
		}

		sc := newSchedule(cores, target, warm)
		checkWarm := func(when string) {
			t.Helper()
			reached, crossed := warmScan(cores, warm)
			if sc.reached != reached || (sc.reached == n) != crossed {
				t.Fatalf("%s: %d cores reached warm-up, scan counts %d (crossed %v)", when, sc.reached, reached, crossed)
			}
		}
		checkWarm("entry")
		ni, _ := sc.runnerUp(-1)
		for batch := 0; ; batch++ {
			want, wantOther, wantOtherClock, haveOther := twoScanPick(cores, target)
			if ni != want {
				t.Fatalf("batch %d: picked core %d, two scans pick %d", batch, ni, want)
			}
			if ni < 0 {
				return
			}
			other, otherClock := sc.runnerUp(ni)
			if !haveOther {
				wantOther, wantOtherClock = -1, retiredClock
			}
			if other != wantOther || otherClock != wantOtherClock {
				t.Fatalf("batch %d: runner-up core %d at %d, two scans give %d at %d", batch, other, otherClock, wantOther, wantOtherClock)
			}
			c := cores[ni]
			for step := 0; ; step++ {
				stepBy(t, c, script, fuzzClock(next()))
				keep := sc.stepped(ni, c, other, otherClock)
				if ends := twoScanBatchEnds(c, ni, target, wantOther, wantOtherClock, haveOther); keep == ends {
					t.Fatalf("batch %d step %d: core %d keeps the turn %v, two scans end the batch %v", batch, step, ni, keep, ends)
				}
				checkWarm("after a step")
				if !keep {
					break
				}
			}
			ni = other
		}
	})
}
