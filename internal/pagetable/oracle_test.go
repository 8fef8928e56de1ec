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
type oracleTable struct {
	levels int
	alloc  FrameAlloc
	root   *oracleNode
	nodes  map[mem.PAddr]*oracleNode

	nodeCount int
	mapped4K  uint64
	mapped2M  uint64
}

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

func newOracle(alloc FrameAlloc, levels int) (*oracleTable, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &oracleTable{levels: levels, alloc: alloc, nodes: make(map[mem.PAddr]*oracleNode)}
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

func (t *oracleTable) NodeFrameAt(v mem.VAddr, level int) (mem.PAddr, bool) {
	if level >= t.levels || level < 1 {
		return 0, false
	}
	n := t.root
	for l := t.levels; l > level; l-- {
		e := n.entries[index(v, l)]
		if !e.present || e.leaf {
			return 0, false
		}
		n = t.nodes[e.next]
	}
	return n.frame, true
}

// recordingAlloc hands out frames from a scrambled allocator based at
// physical address 0, as the simulator's host allocator is, so the first
// node frame — and the first PTE address — is 0. It fails once limit
// frames are out and records every frame it returned.
type recordingAlloc struct {
	inner *mem.FrameAllocator
	limit int
	got   []mem.PAddr
}

func newRecordingAlloc(limit int) *recordingAlloc {
	return &recordingAlloc{inner: mem.NewFrameAllocator(0, 64<<20, true), limit: limit}
}

func (a *recordingAlloc) Alloc4K() (mem.PAddr, error) {
	if len(a.got) >= a.limit {
		return 0, errors.New("frame budget exhausted")
	}
	f, err := a.inner.Alloc4K()
	if err != nil {
		return 0, err
	}
	a.got = append(a.got, f)
	return f, nil
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
// address material (fuzzVA) and 4 bytes of frame number.
const (
	fuzzOpBytes = 9
	fuzzMaxOps  = 256

	fuzzOpMap4K      = 0
	fuzzOpMap2M      = 1
	fuzzOpProbe      = 2    // 2 and 3: compare every query at the address
	fuzzFlagMisalign = 0x10 // Map: frame off its page-size alignment
	fuzzFlagRepeat   = 0x20 // Map: repeat the previous Map's arguments
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

// FuzzTableOracle drives random Map/Lookup/Translate/Walk/NodeFrameAt
// sequences through the PTE-store table and the map-of-maps oracle over
// 4 and 5 levels and 4K/2M pages, each fed by its own identical
// allocator, and requires them to agree on every result, step list and
// error, on NodeCount, on MappedPages and on the frame-allocation
// sequence. The seed corpus runs in every `go test`; `make
// fuzz-pagetable` explores further.
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
	for _, five := range []bool{false, true} {
		f.Add(five, uint8(255), mixed)
		f.Add(five, uint8(3), mixed) // budget runs out part-way through a Map
		f.Add(five, uint8(0), mixed) // New itself fails
	}
	f.Fuzz(func(t *testing.T, five bool, budget uint8, ops []byte) {
		levels := 4
		if five {
			levels = 5
		}
		gotA, wantA := newRecordingAlloc(int(budget)), newRecordingAlloc(int(budget))
		got, gotErr := New(gotA, levels)
		want, wantErr := newOracle(wantA, levels)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("New: err %v, oracle %v", gotErr, wantErr)
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
			for level := 0; level <= levels+1; level++ {
				gn, gok := got.NodeFrameAt(v, level)
				wn, wok := want.NodeFrameAt(v, level)
				if gn != wn || gok != wok {
					t.Fatalf("%s: NodeFrameAt(%#x, %d) = %#x,%v, oracle %#x,%v", what, v, level, gn, gok, wn, wok)
				}
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
			what := fmt.Sprintf("op %d (%#x, va %#x)", n, op, v)
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
			default:
				compareAt(what, v)
			}
			touched = append(touched, v)
			check(what)
		}
		for _, v := range touched {
			for _, d := range []mem.VAddr{0, mem.PageSize4K, mem.PageSize2M} {
				compareAt("final sweep", v^d)
			}
		}
	})
}
