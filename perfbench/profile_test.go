package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pbuf is a minimal protobuf encoder for building canned profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) uint(field int, x uint64) {
	p.varint(uint64(field) << 3)
	p.varint(x)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, xs []uint64) {
	var in pbuf
	for _, x := range xs {
		in.varint(x)
	}
	p.bytes(field, in.b)
}

// cannedProfile encodes a gzipped pprof profile. locs maps location ids
// (from 1) to function names, innermost inlined frame first; each sample
// is a stack of location ids, leaf first, with a count. Stacks of one or
// two locations use the unpacked encoding, longer ones the packed one, as
// runtime/pprof does.
func cannedProfile(t *testing.T, locs [][]string, samples []struct {
	stack []uint64
	count uint64
}) []byte {
	t.Helper()
	var p pbuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := map[string]uint64{}
	for _, names := range locs {
		for _, n := range names {
			if _, ok := funcs[n]; !ok {
				funcs[n] = uint64(len(funcs) + 1)
				strs = append(strs, n)
			}
		}
	}
	var st pbuf // sample_type: samples/count
	st.uint(1, 1)
	st.uint(2, 2)
	p.bytes(1, st.b)
	for _, s := range samples {
		var sp pbuf
		if len(s.stack) > 2 {
			sp.packed(1, s.stack)
		} else {
			for _, l := range s.stack {
				sp.uint(1, l)
			}
		}
		sp.packed(2, []uint64{s.count, s.count * 1e6})
		p.bytes(2, sp.b)
	}
	for i, names := range locs {
		var lp pbuf
		lp.uint(1, uint64(i+1))
		lp.uint(3, 0x1000+uint64(i))
		for _, n := range names {
			var line pbuf
			line.uint(1, funcs[n])
			line.uint(2, 10)
			lp.bytes(4, line.b)
		}
		p.bytes(4, lp.b)
	}
	for i, n := range strs[5:] {
		var fp pbuf
		fp.uint(1, funcs[n])
		fp.uint(2, uint64(i+5))
		p.bytes(5, fp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 1e6) // period
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileSplitGroupsByInnermostLayer(t *testing.T) {
	const r = repoPrefix
	locs := [][]string{
		{r + "tlb.(*TLB).Lookup"},                                          // 1
		{r + "mem.PageNumber", r + "tlb.(*TLB).lookupFlat"},                // 2: mem inlined into tlb
		{r + "sim.(*memSystem).Translate"},                                 // 3
		{"main.(*probe).Translate"},                                        // 4
		{r + "cpu.(*Core).Step"},                                           // 5
		{"runtime.mapaccess2_fast64"},                                      // 6
		{r + "pagetable.(*Table).Walk"},                                    // 7
		{"runtime.gcBgMarkWorker"},                                         // 8
		{r + "experiment.(*Runner).run"},                                   // 9
		{"time.Since", "main.clock"},                                       // 10
		{r + "workload.(*visitGen).Next"},                                  // 11
		{r + "sim.(*memSystem).Access", r + "sim.(*memSystem).AccessData"}, // 12
		{r + "cache.(*Cache).Lookup"},                                      // 13
	}
	samples := []struct {
		stack []uint64
		count uint64
	}{
		{[]uint64{1, 3, 4, 5}, 5},    // tlb, under Translate
		{[]uint64{2, 3, 4, 5}, 3},    // tlb: mem is transparent
		{[]uint64{6, 7, 3, 4, 5}, 4}, // pagetable: the map access lands on its caller
		{[]uint64{8}, 2},             // runtime: no repo frame
		{[]uint64{6, 9}, 1},          // other: repo frames, no layer
		{[]uint64{10, 4, 5}, 2},      // other: the benchmark's own wrapper
		{[]uint64{11, 5}, 3},         // workload, under Next
		{[]uint64{13, 12, 5}, 4},     // cache, under AccessData
	}
	ps := newProfileSplit()
	if err := ps.add(cannedProfile(t, locs, samples)); err != nil {
		t.Fatal(err)
	}
	if ps.total != 24 {
		t.Errorf("total = %d, want 24", ps.total)
	}
	wantLayers := map[string]int64{"tlb": 8, "pagetable": 4, "runtime": 2, "other": 3, "workload": 3, "cache": 4}
	for _, l := range profLayers {
		if ps.layers[l] != wantLayers[l] {
			t.Errorf("layer %s = %d, want %d", l, ps.layers[l], wantLayers[l])
		}
	}
	wantSeams := map[string]int64{"translate": 12, "data": 4, "next": 3}
	for s, want := range wantSeams {
		if ps.seams[s] != want {
			t.Errorf("seam %s = %d, want %d", s, ps.seams[s], want)
		}
	}
	if got := ps.share(ps.layers["tlb"]); got != 8.0/24 {
		t.Errorf("tlb share = %v", got)
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	locs := [][]string{{"runtime.main"}}
	samples := []struct {
		stack []uint64
		count uint64
	}{{[]uint64{1}, 1}}
	good := cannedProfile(t, locs, samples)
	if _, err := parseProfile(good); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := parseProfile(cut.Bytes()); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		repoPrefix + "tlb.(*TLB).Lookup":          repoPrefix + "tlb",
		repoPrefix + "sim.New.func1":              repoPrefix + "sim",
		"runtime.mallocgc":                        "runtime",
		"main.(*probe).Translate":                 "main",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
