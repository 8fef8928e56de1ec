package obs

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"github.com/csalt-sim/csalt/internal/stats"
)

// snapshotKeySet flattens a snapshot into sorted "group metric [bucket]"
// strings, the series identity an interval consumer keys on.
func snapshotKeySet(s Snapshot) []string {
	var keys []string
	for g, metrics := range s {
		for name, v := range metrics {
			if hs, ok := v.(HistSnapshot); ok {
				for _, b := range hs.Buckets {
					keys = append(keys, g+" "+name+" bucket:"+strconv.FormatUint(b.Lo, 10))
				}
			}
			keys = append(keys, g+" "+name)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestDeltaKeySetMatchesFull pins the satellite fix: a delta snapshot must
// expose exactly the key set of the full snapshot it was derived from —
// groups, metrics and histogram buckets — with zero-valued entries present
// rather than omitted, so interval consumers (epoch diffing) never see
// series appear and disappear between readings.
func TestDeltaKeySetMatchesFull(t *testing.T) {
	r := NewRegistry()
	var moved, still uint64
	var h stats.Log2Histogram
	g := r.Group("dram.ddr")
	g.Counter("moved", func() uint64 { return moved })
	g.Counter("still", func() uint64 { return still })
	g.Gauge("zero_gauge", func() float64 { return 0 })
	g.Histogram("queue_wait", &h)

	moved, still = 5, 3
	h.Observe(3)
	h.Observe(100)
	before := r.Snapshot()
	moved = 12 // "still", "zero_gauge" and both buckets don't move
	after := r.Snapshot()

	d := Delta(after, before)
	if got, want := snapshotKeySet(d), snapshotKeySet(after); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta key set %v != full key set %v", got, want)
	}
	if got := d["dram.ddr"]["still"]; got != float64(0) {
		t.Fatalf("unmoved counter = %v, want explicit 0", got)
	}
	dh := d["dram.ddr"]["queue_wait"].(HistSnapshot)
	if len(dh.Buckets) != 2 {
		t.Fatalf("delta histogram has %d buckets, want 2 (zero deltas included)", len(dh.Buckets))
	}
	for _, b := range dh.Buckets {
		if b.Count != 0 {
			t.Fatalf("bucket [%d,%d) delta = %d, want 0", b.Lo, b.Hi, b.Count)
		}
	}
}
