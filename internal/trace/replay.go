package trace

import (
	"fmt"
	"os"
	"sort"

	"github.com/csalt-sim/csalt/internal/mem"
)

// Replay is a Source that loops over a fully materialised recorded trace,
// implementing Footprinter so the simulator can pre-populate translations
// exactly as it does for live generators. It is how traces written by
// cmd/tracegen (or converted from external tools) drive the simulator in
// place of the synthetic workload models — the analogue of the paper's
// Pin-trace playback.
type Replay struct {
	recs []Record
	pos  int

	pages map[uint64]struct{} // distinct 4K page starts, for Footprinter
}

// NewReplay builds a Replay from records; the slice must be non-empty.
func NewReplay(recs []Record) (*Replay, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: replay needs at least one record")
	}
	r := &Replay{recs: recs, pages: make(map[uint64]struct{})}
	for _, rec := range recs {
		r.pages[uint64(rec.Addr)>>mem.PageShift4K] = struct{}{}
	}
	return r, nil
}

// LoadReplay reads a binary trace file (see Writer) into a Replay.
func LoadReplay(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	rd, err := NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	var recs []Record
	for {
		rec, ok := rd.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return NewReplay(recs)
}

// Len returns the number of records in one pass of the trace.
func (r *Replay) Len() int { return len(r.recs) }

// Pages returns the number of distinct 4K pages the trace touches.
func (r *Replay) Pages() int { return len(r.pages) }

// Next implements Source; the trace loops endlessly.
func (r *Replay) Next() (Record, bool) {
	rec := r.recs[r.pos]
	r.pos++
	if r.pos == len(r.recs) {
		r.pos = 0
	}
	return rec, true
}

// VisitFootprint implements Footprinter over the trace's touched pages.
// Iteration order is deterministic (ascending page number) so replays
// allocate frames identically across runs.
func (r *Replay) VisitFootprint(f func(mem.VAddr)) {
	pages := make([]uint64, 0, len(r.pages))
	for p := range r.pages {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, p := range pages {
		f(mem.VAddr(p << mem.PageShift4K))
	}
}
