package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU sampling rate the traced run asks for; Go's
// default 100 Hz gives too few samples in a one-second simulation for the
// shares to reconcile with the span timings. The kernel's timer tick may
// deliver fewer; prof.samples reports what arrived.
const profileHz = 1000

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "github.com/csalt-sim/csalt/internal/"

// simLayers are the simulator packages a profile sample can be charged to;
// profLayers adds the two catch-alls.
var (
	simLayers  = []string{"tlb", "cache", "walker", "pagetable", "dram", "core", "cpu", "workload", "sim"}
	profLayers = append(append([]string{}, simLayers...), "runtime", "other")
)

// seamFrames name the functions whose profile share reconciles with the
// matching span timing.
var seamFrames = map[string]func(fn string) bool{
	"translate": func(fn string) bool { return fn == repoPrefix+"sim.(*memSystem).Translate" },
	"data":      func(fn string) bool { return fn == repoPrefix+"sim.(*memSystem).AccessData" },
	"next": func(fn string) bool {
		p := pkgOf(fn)
		return (p == repoPrefix+"workload" || p == repoPrefix+"trace") && strings.HasSuffix(fn, ".Next")
	},
}

// startProfile starts CPU profiling into buf at profileHz. Setting the
// rate first makes StartCPUProfile keep it; the runtime notes on stderr
// that the later default-rate request was ignored.
func startProfile(buf *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	return nil
}

// profileSplit accumulates profile samples by layer and by seam.
type profileSplit struct {
	total  int64
	layers map[string]int64
	seams  map[string]int64
}

func newProfileSplit() *profileSplit {
	return &profileSplit{layers: map[string]int64{}, seams: map[string]int64{}}
}

// add charges every sample of one encoded profile.
func (ps *profileSplit) add(encoded []byte) error {
	samples, err := parseProfile(encoded)
	if err != nil {
		return err
	}
	for _, s := range samples {
		ps.total += s.count
		ps.layers[layerOf(s.frames)] += s.count
		for seam, match := range seamFrames {
			for _, fn := range s.frames {
				if match(fn) {
					ps.seams[seam] += s.count
					break
				}
			}
		}
	}
	return nil
}

func (ps *profileSplit) share(n int64) float64 {
	if ps.total == 0 {
		return 0
	}
	return float64(n) / float64(ps.total)
}

// pkgOf returns the import path of a profiled function name such as
// "github.com/x/y/internal/tlb.(*TLB).Lookup" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf charges a stack (leaf first) to its innermost simulator layer.
// Frames of other repo packages (mem, stats, ...) and of the runtime are
// transparent, so a map access or allocation lands on the layer that made
// it. A stack whose innermost charged frame is this benchmark's own code,
// or that holds repo frames but no layer, is "other"; a stack with no repo
// frame at all is "runtime".
func layerOf(frames []string) string {
	sawRepo := false
	for _, fn := range frames {
		p := pkgOf(fn)
		if p == "main" {
			return "other"
		}
		if !strings.HasPrefix(p, repoPrefix) {
			continue
		}
		sawRepo = true
		name := p[len(repoPrefix):]
		for _, l := range simLayers {
			if name == l {
				return l
			}
		}
	}
	if sawRepo {
		return "other"
	}
	return "runtime"
}

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames included, innermost first), and its sample count.
type profSample struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzip-compressed pprof protobuf, reading only the
// fields the split needs: samples, locations, functions and strings.
func parseProfile(encoded []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(encoded))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err = walkFields(raw, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					return appendVarints(&s.values, w, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					ps.frames = append(ps.frames, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every field of one protobuf message: v holds a
// varint's value, data a length-delimited payload. Fixed-width fields are
// skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
