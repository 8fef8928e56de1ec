package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sampler records per-epoch metric vectors into a bounded buffer. The
// driver (sim.System) offers one row per sampling epoch; when the buffer
// reaches capacity the sampler halves its resolution — it drops every
// second stored row and doubles its stride, thereafter keeping only every
// stride-th offered row — so an arbitrarily long run degrades into an
// evenly spaced, bounded time series instead of growing without bound or
// truncating its tail.
type Sampler struct {
	cols     []string
	capacity int
	rows     [][]float64
	stride   uint64 // keep every stride-th offered row
	offered  uint64
}

// DefaultSamplerCapacity bounds the time series when the caller does not.
const DefaultSamplerCapacity = 512

// NewSampler builds a sampler over the given column names; capacity <= 0
// selects DefaultSamplerCapacity. Capacity is clamped to >= 2 so
// downsampling always has room to make progress.
func NewSampler(cols []string, capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSamplerCapacity
	}
	if capacity < 2 {
		capacity = 2
	}
	return &Sampler{cols: cols, capacity: capacity, stride: 1}
}

// Columns returns the column names.
func (s *Sampler) Columns() []string { return s.cols }

// Len returns the number of stored rows.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Stride returns the current downsampling stride: a stored row represents
// stride offered epochs.
func (s *Sampler) Stride() uint64 { return s.stride }

// Offered returns the number of rows offered over the sampler's lifetime.
func (s *Sampler) Offered() uint64 { return s.offered }

// Offer submits one epoch's row (which the sampler takes ownership of) and
// reports whether it was stored; rows between strides are discarded.
func (s *Sampler) Offer(row []float64) bool {
	s.offered++
	if (s.offered-1)%s.stride != 0 {
		return false
	}
	s.rows = append(s.rows, row)
	if len(s.rows) >= s.capacity {
		// Halve resolution: keep even-indexed rows, double the stride.
		kept := s.rows[:0]
		for i := 0; i < len(s.rows); i += 2 {
			kept = append(kept, s.rows[i])
		}
		for i := len(kept); i < len(s.rows); i++ {
			s.rows[i] = nil
		}
		s.rows = kept
		s.stride *= 2
	}
	return true
}

// Rows returns the stored rows (live slice; callers must not mutate).
func (s *Sampler) Rows() [][]float64 {
	if s == nil {
		return nil
	}
	return s.rows
}

// Column returns the index of a named column, or -1.
func (s *Sampler) Column(name string) int {
	for i, c := range s.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// WriteCSV writes the header and every stored row. Floats use the shortest
// exact representation so the output is deterministic.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(s.cols, ",")); err != nil {
		return err
	}
	var b strings.Builder
	for _, row := range s.rows {
		b.Reset()
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
