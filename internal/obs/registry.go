// Package obs is the simulator's observability layer: a hierarchical
// metrics registry every component publishes its counters into, a
// structured event tracer (JSONL or Chrome trace_event) for the transient
// decisions the end-of-run tables average away, and an epoch time-series
// sampler that records per-epoch metric vectors into a bounded ring
// buffer.
//
// The layer is strictly passive: registered metrics are closures over live
// counters that are only read at snapshot time, and every trace hook is a
// zero-allocation no-op when its event kind is disabled (or the tracer is
// nil), so an unobserved simulation is byte-identical to one that never
// imported this package.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/csalt-sim/csalt/internal/stats"
)

// metric is one registered scalar: a name plus a closure reading the live
// value.
type metric struct {
	name string
	get  func() float64
}

// histEntry is one registered log2 histogram.
type histEntry struct {
	name string
	h    *stats.Log2Histogram
}

// Group is one component's namespace in the registry ("tlb.l2tlb0",
// "dram.ddr4-2133", "csalt.l3", ...). Metrics registered under a group are
// reported as <group>.<metric>.
type Group struct {
	name    string
	metrics []metric
	hists   []histEntry
}

// Name returns the group's namespace.
func (g *Group) Name() string { return g.name }

// Gauge registers a float-valued metric read lazily at snapshot time.
func (g *Group) Gauge(name string, get func() float64) {
	if g == nil {
		return
	}
	g.metrics = append(g.metrics, metric{name: name, get: get})
}

// Counter registers a monotonically increasing count; it is exported as a
// float64 like every scalar.
func (g *Group) Counter(name string, get func() uint64) {
	if g == nil {
		return
	}
	g.metrics = append(g.metrics, metric{name: name,
		get: func() float64 { return float64(get()) }})
}

// Histogram registers a log2-bucketed distribution. The histogram is read
// (never written) at snapshot time.
func (g *Group) Histogram(name string, h *stats.Log2Histogram) {
	if g == nil || h == nil {
		return
	}
	g.hists = append(g.hists, histEntry{name: name, h: h})
}

// Registry is the hierarchical metrics registry. Components register their
// stat blocks into named groups at observer-attach time; Snapshot walks
// every closure and produces an exportable value. The zero registry is not
// usable; call NewRegistry. All methods are safe on a nil *Registry (they
// do nothing / return nothing), so callers may register unconditionally.
type Registry struct {
	mu     sync.Mutex
	order  []string
	groups map[string]*Group
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*Group)}
}

// Group returns the named group, creating it on first use.
func (r *Registry) Group(name string) *Group {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.groups[name]; ok {
		return g
	}
	g := &Group{name: name}
	r.groups[name] = g
	r.order = append(r.order, name)
	return g
}

// Groups returns the registered group names in registration order.
func (r *Registry) Groups() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// HistSnapshot is the exported form of a log2 histogram: summary moments
// plus the non-empty buckets.
type HistSnapshot struct {
	Total   uint64         `json:"total"`
	Sum     uint64         `json:"sum"`
	Mean    float64        `json:"mean"`
	Buckets []BucketExport `json:"buckets,omitempty"`
}

// BucketExport is one non-empty histogram bucket [Lo, Hi).
type BucketExport struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Snapshot maps group name → metric name → value, where a value is either
// a float64 (gauges, counters) or a HistSnapshot. encoding/json sorts map
// keys, so the JSON export is deterministic.
type Snapshot map[string]map[string]interface{}

// Snapshot reads every registered metric once and returns the result.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.order))
	for _, name := range r.order {
		g := r.groups[name]
		m := make(map[string]interface{}, len(g.metrics)+len(g.hists))
		for _, mt := range g.metrics {
			m[mt.name] = mt.get()
		}
		for _, he := range g.hists {
			m[he.name] = snapshotHist(he.h)
		}
		out[name] = m
	}
	return out
}

func snapshotHist(h *stats.Log2Histogram) HistSnapshot {
	hs := HistSnapshot{Total: h.Total(), Sum: h.Sum(), Mean: h.Mean()}
	h.Nonzero(func(_ int, lo, hi, count uint64) {
		hs.Buckets = append(hs.Buckets, BucketExport{Lo: lo, Hi: hi, Count: count})
	})
	return hs
}

// Delta returns cur − prev: scalar metrics are subtracted, histograms are
// diffed bucket-wise (totals, sums and counts), and groups or metrics
// absent from prev pass through unchanged. It supports before/after
// interval reporting without resetting any live counter.
//
// Delta preserves cur's key set exactly: every group, metric and histogram
// bucket present in the full snapshot appears in the delta, including
// zero-valued entries. Interval consumers (epoch diffing) therefore see a
// stable series set — a counter that did not move between snapshots
// reports 0 rather than disappearing.
func Delta(cur, prev Snapshot) Snapshot {
	out := make(Snapshot, len(cur))
	for gname, metrics := range cur {
		pm := prev[gname]
		dm := make(map[string]interface{}, len(metrics))
		for name, v := range metrics {
			pv, ok := pm[name]
			if !ok {
				dm[name] = v
				continue
			}
			switch cv := v.(type) {
			case float64:
				if pf, ok := pv.(float64); ok {
					dm[name] = cv - pf
				} else {
					dm[name] = cv
				}
			case HistSnapshot:
				if ph, ok := pv.(HistSnapshot); ok {
					dm[name] = deltaHist(cv, ph)
				} else {
					dm[name] = cv
				}
			default:
				dm[name] = v
			}
		}
		out[gname] = dm
	}
	return out
}

func deltaHist(cur, prev HistSnapshot) HistSnapshot {
	prevCount := make(map[uint64]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevCount[b.Lo] = b.Count
	}
	d := HistSnapshot{Total: cur.Total - prev.Total, Sum: cur.Sum - prev.Sum}
	if d.Total > 0 {
		d.Mean = float64(d.Sum) / float64(d.Total)
	}
	// Emit every bucket the full snapshot has — zero deltas included — so
	// the delta's bucket key set matches cur's (counters are monotone, so
	// cur's buckets are a superset of prev's).
	for _, b := range cur.Buckets {
		d.Buckets = append(d.Buckets, BucketExport{Lo: b.Lo, Hi: b.Hi, Count: b.Count - prevCount[b.Lo]})
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON with deterministic key
// order.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as sorted "group.metric value" lines;
// histograms render as their summary plus non-empty buckets.
func (s Snapshot) WriteText(w io.Writer) error {
	groups := make([]string, 0, len(s))
	for g := range s {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		names := make([]string, 0, len(s[g]))
		for n := range s[g] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			switch v := s[g][n].(type) {
			case float64:
				if _, err := fmt.Fprintf(w, "%s.%s %g\n", g, n, v); err != nil {
					return err
				}
			case HistSnapshot:
				if _, err := fmt.Fprintf(w, "%s.%s total=%d mean=%.2f", g, n, v.Total, v.Mean); err != nil {
					return err
				}
				for _, b := range v.Buckets {
					if _, err := fmt.Fprintf(w, " [%d,%d):%d", b.Lo, b.Hi, b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s.%s %v\n", g, n, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
