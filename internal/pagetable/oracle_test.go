package pagetable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// oracleTable is the reference page-table implementation the PTE store
// replaced: one Go map of entries per node plus a frame-indexed map of
// nodes. It is kept only as the differential oracle for FuzzTableOracle —
// both simulation engines share the production table, so the engine
// equivalence suite cannot catch a page-table bug; this oracle can.
//
// It holds full 64-bit frames, so nothing limits what it can store; it
// enforces the production table's rule that node and leaf frames lie
// below 2^38 (oracleLimit), and a dense table's rule that keys lie below
// its bound (keyLimit), only so that the two keep failing alike.
type oracleTable struct {
	levels   int
	alloc    FrameAlloc
	root     *oracleNode
	nodes    map[mem.PAddr]*oracleNode
	keyLimit uint64 // ^0 when the table under test is hashed

	nodeCount int
	mapped4K  uint64
	mapped2M  uint64
}

const oracleLimit = mem.PAddr(1) << 38

type oracleEntry struct {
	present bool
	leaf    bool
	next    mem.PAddr // next node frame, or mapped frame when leaf
	size    mem.PageSize
}

type oracleNode struct {
	frame   mem.PAddr
	entries map[int]oracleEntry
}

func newOracle(alloc FrameAlloc, levels int, keyLimit uint64) (*oracleTable, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &oracleTable{levels: levels, alloc: alloc, nodes: make(map[mem.PAddr]*oracleNode), keyLimit: keyLimit}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *oracleTable) newNode() (*oracleNode, error) {
	frame, err := t.alloc.Alloc4K()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating node: %w", err)
	}
	if frame >= oracleLimit {
		return nil, fmt.Errorf("pagetable: node frame %#x not below 2^38", frame)
	}
	n := &oracleNode{frame: frame, entries: make(map[int]oracleEntry)}
	t.nodes[frame] = n
	t.nodeCount++
	return n, nil
}

func (t *oracleTable) Root() mem.PAddr { return t.root.frame }

func (t *oracleTable) NodeCount() int { return t.nodeCount }

func (t *oracleTable) MappedPages() (p4k, p2m uint64) { return t.mapped4K, t.mapped2M }

func (t *oracleTable) Map(v mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
	if uint64(frame)&(size.Bytes()-1) != 0 {
		return fmt.Errorf("pagetable: frame %#x not aligned to %s page", frame, size)
	}
	if frame >= oracleLimit {
		return fmt.Errorf("pagetable: frame %#x not below 2^38", frame)
	}
	// A walk resolves only the bits its levels index, so the bound applies
	// to those.
	if uint64(v)&(1<<(12+9*t.levels)-1) >= t.keyLimit {
		return fmt.Errorf("pagetable: key %#x not below the table's bound %#x", v, t.keyLimit)
	}
	stop := leafLevel(size)
	n := t.root
	for level := t.levels; level > stop; level-- {
		idx := index(v, level)
		e := n.entries[idx]
		if e.present && e.leaf {
			return fmt.Errorf("pagetable: %#x crosses existing %s leaf at level %d", v, e.size, level)
		}
		if !e.present {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			e = oracleEntry{present: true, next: child.frame}
			n.entries[idx] = e
		}
		n = t.nodes[e.next]
	}
	idx := index(v, stop)
	if e, ok := n.entries[idx]; ok && e.present {
		if e.leaf && e.next == frame && e.size == size {
			return nil
		}
		return fmt.Errorf("pagetable: %#x already mapped", v)
	}
	n.entries[idx] = oracleEntry{present: true, leaf: true, next: frame, size: size}
	if size == mem.Page2M {
		t.mapped2M++
	} else {
		t.mapped4K++
	}
	return nil
}

func (t *oracleTable) Lookup(v mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		e := n.entries[index(v, level)]
		if !e.present {
			return 0, 0, false
		}
		if e.leaf {
			return e.next, e.size, true
		}
		n = t.nodes[e.next]
	}
	return 0, 0, false
}

// lookupThenMap is the two-walk sequence Table.MapIfAbsent replaces:
// Lookup, then for an unmapped v a frame from alloc and Map.
func (t *oracleTable) lookupThenMap(v mem.VAddr, size mem.PageSize, alloc func() (mem.PAddr, error)) (mem.PAddr, mem.PageSize, bool, error) {
	if frame, got, ok := t.Lookup(v); ok {
		return frame, got, false, nil
	}
	frame, err := alloc()
	if err != nil {
		return 0, 0, false, err
	}
	if err := t.Map(v, frame, size); err != nil {
		return 0, 0, false, err
	}
	return frame, size, true, nil
}

func (t *oracleTable) Translate(v mem.VAddr) (mem.PAddr, bool) {
	frame, size, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return frame + mem.PAddr(mem.PageOffset(v, size)), true
}

func (t *oracleTable) Walk(v mem.VAddr, steps []Step) ([]Step, mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		pte := n.frame + mem.PAddr(index(v, level)*entryBytes)
		steps = append(steps, Step{Addr: pte, Level: level})
		e := n.entries[index(v, level)]
		if !e.present {
			return steps, 0, 0, false
		}
		if e.leaf {
			return steps, e.next, e.size, true
		}
		n = t.nodes[e.next]
	}
	return steps, 0, 0, false
}

// recordingAlloc hands out node frames, fails once limit frames are out
// and records every frame it returned. By default the frames come from a
// scrambled allocator based at physical address 0, as the simulator's
// host allocator is, so the first node frame — and the first PTE address
// — is 0. A high allocator instead counts up across the 2^38 bound: the
// frame it hands out after limit/2 others is exactly 2^38.
type recordingAlloc struct {
	inner *mem.FrameAllocator // nil when high
	next  mem.PAddr           // next frame when high
	limit int
	got   []mem.PAddr
}

func newRecordingAlloc(limit int, high bool) *recordingAlloc {
	if high {
		return &recordingAlloc{next: oracleLimit - mem.PAddr(limit/2)*mem.PageSize4K, limit: limit}
	}
	return &recordingAlloc{inner: mem.NewFrameAllocator(0, 64<<20, true), limit: limit}
}

func (a *recordingAlloc) Alloc4K() (mem.PAddr, error) {
	if len(a.got) >= a.limit {
		return 0, errors.New("frame budget exhausted")
	}
	f := a.next
	if a.inner != nil {
		var err error
		if f, err = a.inner.Alloc4K(); err != nil {
			return 0, err
		}
	} else {
		a.next += mem.PageSize4K
	}
	a.got = append(a.got, f)
	return f, nil
}

// leaf returns a MapIfAbsent frame source that hands out frame. It draws
// on the node frames' budget and records into the same sequence, so the
// order of leaf and node allocations is compared too.
func (a *recordingAlloc) leaf(frame mem.PAddr) func() (mem.PAddr, error) {
	return func() (mem.PAddr, error) {
		if len(a.got) >= a.limit {
			return 0, errors.New("frame budget exhausted")
		}
		a.got = append(a.got, frame)
		return frame, nil
	}
}

// spreadIndex maps k in [0, n) onto the low and high ends of a node's
// 512 slots, so entries at both edges of a frame are exercised.
func spreadIndex(k, n uint64) uint64 {
	if k < n/2 {
		return k
	}
	return entriesPerNode - n + k
}

// fuzzVA spreads 32 fuzz bits over a deliberately small slice of every
// level's index space, so that maps collide: shared interior nodes,
// duplicate and crossing mappings, 2M leaves over populated regions.
// Bit 48 (the 5-level index) is ignored by a 4-level table.
func fuzzVA(r uint32) mem.VAddr {
	l5 := uint64(r & 1)
	l4 := spreadIndex(uint64(r>>1)&3, 4)
	l3 := spreadIndex(uint64(r>>3)&3, 4)
	l2 := spreadIndex(uint64(r>>5)&7, 8)
	l1 := spreadIndex(uint64(r>>8)&15, 16)
	off := uint64(r>>12) & (mem.PageSize4K - 1)
	return mem.VAddr(l5<<48 | l4<<39 | l3<<30 | l2<<21 | l1<<12 | off)
}

// Fuzz operations are fixed 9-byte records: an opcode byte, 4 bytes of
// address material (fuzzVA) and 4 bytes of frame number. A 32-bit frame
// number reaches far past the 2^38 bound in either page size.
const (
	fuzzOpBytes = 9
	fuzzMaxOps  = 256

	fuzzOpMap4K       = 0
	fuzzOpMap2M       = 1
	fuzzOpProbe       = 2    // compare every query at the address
	fuzzOpMapIfAbsent = 3    // MapIfAbsent against Lookup then Map
	fuzzFlagMisalign  = 0x10 // Map, MapIfAbsent: frame off its page-size alignment
	fuzzFlagRepeat    = 0x20 // Map: repeat the previous Map's arguments
	fuzzFlag2M        = 0x40 // MapIfAbsent: map a 2M page
)

func fuzzOp(op byte, r, frame uint32) []byte {
	b := []byte{op, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[1:], r)
	binary.LittleEndian.PutUint32(b[5:], frame)
	return b
}

func fuzzOps(ops ...[]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// fuzzKeyLimit is the dense table's key bound under FuzzTableOracle: 1 GB
// plus two 2 MB regions, so fuzzVA's keys fall on both sides of it (its
// level-3 index 1 with level-2 index 0 or 1 below, 2 or 3 at or above).
const fuzzKeyLimit = 1<<30 | 2<<21

// FuzzTableOracle drives random Map/MapIfAbsent/Lookup/Translate/Walk
// sequences through the table and the map-of-maps oracle over 4 and 5
// levels and 4K/2M pages, each fed by its own identical allocator (high:
// one counting up across 2^38), and requires them to agree on every
// result, step list and error, on NodeCount, on MappedPages and on the
// frame-allocation sequence. MapIfAbsent is checked against the oracle's
// Lookup then Map, its leaf frame drawn in the allocation sequence. Every
// input runs twice: against a hashed table (New), and against a dense one
// (NewDense, bound fuzzKeyLimit) whose oracle refuses the keys it must.
// The seed corpus runs in every `go test`; `make fuzz-pagetable` explores
// further.
func FuzzTableOracle(f *testing.F) {
	const (
		r0       = 0           // VA 0: every index 0, so PTE address 0 is touched
		rA       = 0x0000_0321 // a 4K page
		rB       = 0x0000_0c21 // rA's 4K neighbour in the same leaf node
		rHuge    = 0x0000_00e0 // an empty 2M region
		rFar     = 0x0000_001f // different upper-level indices
		frameA   = 0x12345
		frameB   = 0x23456
		hugeSlot = 0x7

		// Frame numbers at the 2^38 bound: the last page below it, and it.
		top4K   = 1<<(38-12) - 1
		top2M   = 1<<(38-21) - 1
		limit4K = top4K + 1
		limit2M = top2M + 1
	)
	mixed := fuzzOps(
		fuzzOp(fuzzOpMap4K, r0, 0), // frame 0 is a valid leaf target
		fuzzOp(fuzzOpProbe, r0, 0),
		fuzzOp(fuzzOpMap4K, rA, frameA),
		fuzzOp(fuzzOpMap4K|fuzzFlagRepeat, 0, 0), // idempotent remap
		fuzzOp(fuzzOpMap4K, rA, frameB),          // conflicting remap
		fuzzOp(fuzzOpMap4K|fuzzFlagMisalign, rB, frameB),
		fuzzOp(fuzzOpMap4K, rB, frameB),
		fuzzOp(fuzzOpMap2M, rA, hugeSlot), // 2M over a populated L1 node
		fuzzOp(fuzzOpMap2M, rHuge, hugeSlot),
		fuzzOp(fuzzOpMap2M|fuzzFlagRepeat, 0, 0),
		fuzzOp(fuzzOpMap2M|fuzzFlagMisalign, rFar, hugeSlot),
		fuzzOp(fuzzOpMap4K, rHuge|0x700, frameA), // 4K under the 2M leaf
		fuzzOp(fuzzOpProbe, rHuge|0xabc000, 0),
		fuzzOp(fuzzOpProbe, rHuge, 0),
		fuzzOp(fuzzOpProbe, rFar, 0), // unmapped: partial steps
		fuzzOp(fuzzOpMap4K, rFar|0x100, frameB),
		fuzzOp(fuzzOpProbe, rFar|0x100, 0),
		fuzzOp(fuzzOpProbe, rFar, 0), // misses at level 1 only
	)
	bound := fuzzOps(
		fuzzOp(fuzzOpMap4K, rA, top4K), // accepted
		fuzzOp(fuzzOpProbe, rA, 0),
		fuzzOp(fuzzOpMap4K, rB, limit4K), // rejected
		fuzzOp(fuzzOpProbe, rB, 0),
		fuzzOp(fuzzOpMap2M, rHuge, top2M), // accepted
		fuzzOp(fuzzOpProbe, rHuge|0xabc000, 0),
		fuzzOp(fuzzOpMap2M, rFar, limit2M), // rejected
		fuzzOp(fuzzOpProbe, rFar, 0),
	)
	for _, five := range []bool{false, true} {
		f.Add(five, uint8(255), false, mixed)
		f.Add(five, uint8(3), false, mixed) // budget runs out part-way through a Map
		f.Add(five, uint8(0), false, mixed) // New itself fails
	}
	absent := fuzzOps(
		fuzzOp(fuzzOpMapIfAbsent, rA, frameA),                     // leaf frame, then its nodes
		fuzzOp(fuzzOpMapIfAbsent, rA, frameB),                     // mapped: no frame drawn
		fuzzOp(fuzzOpMapIfAbsent, rB, frameB),                     // nodes already there
		fuzzOp(fuzzOpMapIfAbsent|fuzzFlag2M, rA, hugeSlot),        // finds rA's 4K leaf
		fuzzOp(fuzzOpMapIfAbsent|fuzzFlag2M, rA&^0xf00, hugeSlot), // 2M over a populated L1 node
		fuzzOp(fuzzOpMapIfAbsent|fuzzFlag2M, rHuge, hugeSlot),
		fuzzOp(fuzzOpMapIfAbsent, rHuge|0x700, frameA), // finds the 2M leaf
		fuzzOp(fuzzOpProbe, rHuge|0xabc000, 0),
		fuzzOp(fuzzOpMapIfAbsent|fuzzFlag2M|fuzzFlagMisalign, rFar, hugeSlot),
		fuzzOp(fuzzOpMapIfAbsent, rFar, limit4K), // rejected after the draw
		fuzzOp(fuzzOpMapIfAbsent, rFar, top4K),
		fuzzOp(fuzzOpProbe, rFar, 0),
		fuzzOp(fuzzOpMap4K, rFar|0x100, frameB),
		fuzzOp(fuzzOpMapIfAbsent, rFar|0x100, frameA), // mapped by Map
		fuzzOp(fuzzOpProbe, rFar|0x100, 0),
	)
	for _, five := range []bool{false, true} {
		f.Add(five, uint8(255), false, bound)
		f.Add(five, uint8(8), true, mixed) // the fifth node frame is 2^38
		f.Add(five, uint8(1), true, mixed) // the root frame is 2^38
	}
	for _, five := range []bool{false, true} {
		f.Add(five, uint8(255), false, absent)
		f.Add(five, uint8(3), false, absent) // budget runs out part-way through a MapIfAbsent
		f.Add(five, uint8(6), true, absent)
	}
	const (
		rBelow = 0x0000_0328 // level 3 index 1, level 2 index 1: the last region below fuzzKeyLimit
		rAt    = 0x0000_0048 // level 2 index 2: the first region at it
		rLow2M = 0x0000_0008 // level 2 index 0: an empty 2M region below it
	)
	edge := fuzzOps(
		fuzzOp(fuzzOpMap4K, rBelow, frameA),
		fuzzOp(fuzzOpMap4K, rBelow|0xf00, frameB), // the region's last slot
		fuzzOp(fuzzOpMap4K, rAt, frameA),          // dense: refused
		fuzzOp(fuzzOpProbe, rAt, 0),
		fuzzOp(fuzzOpMap2M, rAt, hugeSlot), // dense: refused
		fuzzOp(fuzzOpMap2M, rLow2M, hugeSlot),
		fuzzOp(fuzzOpProbe, rLow2M|0xabc000, 0),
		fuzzOp(fuzzOpMapIfAbsent, rAt|0x100, frameB), // dense: drawn, then refused
		fuzzOp(fuzzOpMapIfAbsent, rBelow|0x100, frameB),
		fuzzOp(fuzzOpMap4K, rBelow|1, frameA), // bit 48: rBelow's alias at 4 levels, above the bound at 5
		fuzzOp(fuzzOpProbe, rBelow|1, 0),
		fuzzOp(fuzzOpProbe, rBelow, 0),
	)
	for _, five := range []bool{false, true} {
		f.Add(five, uint8(255), false, edge)
		f.Add(five, uint8(4), false, edge) // budget runs out at the first map
	}
	f.Fuzz(func(t *testing.T, five bool, budget uint8, high bool, ops []byte) {
		checkOracle(t, five, budget, high, ops, ^uint64(0))
		checkOracle(t, five, budget, high, ops, fuzzKeyLimit)
	})
}

// checkOracle runs one FuzzTableOracle input against a table with the
// given key bound: a hashed table for ^0, a dense one otherwise.
func checkOracle(t *testing.T, five bool, budget uint8, high bool, ops []byte, keyLimit uint64) {
	t.Helper()
	levels := 4
	if five {
		levels = 5
	}
	gotA, wantA := newRecordingAlloc(int(budget), high), newRecordingAlloc(int(budget), high)
	var got *Table
	var gotErr error
	if keyLimit == ^uint64(0) {
		got, gotErr = New(gotA, levels)
	} else {
		got, gotErr = NewDense(gotA, levels, mem.PAddr(keyLimit))
	}
	want, wantErr := newOracle(wantA, levels, keyLimit)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("key bound %#x: constructor err %v, oracle %v", keyLimit, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	check := func(what string) {
		t.Helper()
		if got.Root() != want.Root() || got.NodeCount() != want.NodeCount() {
			t.Fatalf("%s: root/nodes %#x/%d, oracle %#x/%d", what, got.Root(), got.NodeCount(), want.Root(), want.NodeCount())
		}
		g4, g2 := got.MappedPages()
		w4, w2 := want.MappedPages()
		if g4 != w4 || g2 != w2 {
			t.Fatalf("%s: MappedPages %d/%d, oracle %d/%d", what, g4, g2, w4, w2)
		}
		if !reflect.DeepEqual(gotA.got, wantA.got) {
			t.Fatalf("%s: allocation sequence %#x, oracle %#x", what, gotA.got, wantA.got)
		}
	}
	compareAt := func(what string, v mem.VAddr) {
		t.Helper()
		gf, gs, gok := got.Lookup(v)
		wf, ws, wok := want.Lookup(v)
		if gf != wf || gs != ws || gok != wok {
			t.Fatalf("%s: Lookup(%#x) = %#x,%v,%v, oracle %#x,%v,%v", what, v, gf, gs, gok, wf, ws, wok)
		}
		gpa, gok := got.Translate(v)
		wpa, wok := want.Translate(v)
		if gpa != wpa || gok != wok {
			t.Fatalf("%s: Translate(%#x) = %#x,%v, oracle %#x,%v", what, v, gpa, gok, wpa, wok)
		}
		gsteps, gf, gs, gok := got.Walk(v, nil)
		wsteps, wf, ws, wok := want.Walk(v, nil)
		if !reflect.DeepEqual(gsteps, wsteps) || gf != wf || gs != ws || gok != wok {
			t.Fatalf("%s: Walk(%#x) = %v,%#x,%v,%v, oracle %v,%#x,%v,%v", what, v, gsteps, gf, gs, gok, wsteps, wf, ws, wok)
		}
	}

	var touched []mem.VAddr
	var prevV mem.VAddr
	var prevFrame mem.PAddr
	prevSize := mem.Page4K
	for n := 0; len(ops) >= fuzzOpBytes && n < fuzzMaxOps; n++ {
		op := ops[0]
		v := fuzzVA(binary.LittleEndian.Uint32(ops[1:]))
		fr := uint64(binary.LittleEndian.Uint32(ops[5:]))
		ops = ops[fuzzOpBytes:]
		what := fmt.Sprintf("key bound %#x, op %d (%#x, va %#x)", keyLimit, n, op, v)
		switch op & 3 {
		case fuzzOpMap4K, fuzzOpMap2M:
			size := mem.Page4K
			if op&3 == fuzzOpMap2M {
				size = mem.Page2M
			}
			frame := mem.PAddr(fr << size.Shift())
			if op&fuzzFlagMisalign != 0 {
				frame += 0x800
			}
			if op&fuzzFlagRepeat != 0 {
				v, frame, size = prevV, prevFrame, prevSize
			}
			prevV, prevFrame, prevSize = v, frame, size
			gerr, werr := got.Map(v, frame, size), want.Map(v, frame, size)
			if errString(gerr) != errString(werr) {
				t.Fatalf("%s: Map(%#x, %s) err %v, oracle %v", what, frame, size, gerr, werr)
			}
		case fuzzOpMapIfAbsent:
			size := mem.Page4K
			if op&fuzzFlag2M != 0 {
				size = mem.Page2M
			}
			frame := mem.PAddr(fr << size.Shift())
			if op&fuzzFlagMisalign != 0 {
				frame += 0x800
			}
			gf, gs, gnew, gerr := got.MapIfAbsent(v, size, gotA.leaf(frame))
			wf, ws, wnew, werr := want.lookupThenMap(v, size, wantA.leaf(frame))
			if gf != wf || gs != ws || gnew != wnew || errString(gerr) != errString(werr) {
				t.Fatalf("%s: MapIfAbsent(%#x, %s) = %#x,%v,%v,%v, oracle %#x,%v,%v,%v",
					what, frame, size, gf, gs, gnew, gerr, wf, ws, wnew, werr)
			}
		default:
			compareAt(what, v)
		}
		touched = append(touched, v)
		check(what)
	}
	for _, v := range touched {
		for _, d := range []mem.VAddr{0, mem.PageSize4K, mem.PageSize2M} {
			compareAt(fmt.Sprintf("key bound %#x, final sweep", keyLimit), v^d)
		}
	}
}
