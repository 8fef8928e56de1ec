// Package pagetable implements x86-64-style multi-level radix page tables
// built in simulated physical memory. Table nodes occupy real (simulated)
// 4 KB frames, so a walk yields the physical addresses of the page-table
// entries it touches — which is what lets the simulator model PTE caching
// in the data caches, the effect at the heart of the paper's motivation
// (§2.1, Figure 2).
//
// The same type serves both dimensions of a virtualized system: the guest
// table's "physical" addresses are guest-physical (gPA), the host/EPT
// table's are host-physical (hPA). The nested walker in internal/walker
// composes the two.
//
// A table keeps no node objects. Every present PTE lives in one
// open-addressing store keyed by the PTE's own simulated address (node
// frame + 8·index) and holding a packed PTE word, so a table is found
// the way hardware finds it: by address. A walk step is one hash probe —
// read the PTE at frame+8·idx — and the word's frame field is the next
// node's frame.
package pagetable

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
)

const (
	entriesPerNode = 512 // 9 index bits per level
	entryBytes     = 8
)

// FrameAlloc supplies 4 KB frames for table nodes, in whatever address
// domain the table lives in. Frames must be 4 KB aligned: a PTE word
// keeps its flags in the low 12 bits of the frame it points to.
type FrameAlloc interface {
	Alloc4K() (mem.PAddr, error)
}

// Step is one page-table entry touched during a walk: the entry's address
// (in the table's address domain) and the level it belongs to (Levels()
// down to 1; level 1 entries are leaf PTEs for 4 KB pages).
type Step struct {
	Addr  mem.PAddr
	Level int
}

// A PTE word packs one entry: the 4 KB-aligned frame it points to (the
// next node, or the mapped page when leaf) in the high bits and flags in
// the low 12. Only present entries are stored, so every stored word is
// nonzero and a zero word is an absent entry.
const (
	ptePresent   = 1 << 0
	pteLeaf      = 1 << 1
	pte2M        = 1 << 2
	pteFrameMask = ^uint64(mem.PageSize4K - 1)
)

func leafWord(frame mem.PAddr, size mem.PageSize) uint64 {
	w := uint64(frame) | ptePresent | pteLeaf
	if size == mem.Page2M {
		w |= pte2M
	}
	return w
}

func wordFrame(w uint64) mem.PAddr { return mem.PAddr(w & pteFrameMask) }

func wordSize(w uint64) mem.PageSize {
	if w&pte2M != 0 {
		return mem.Page2M
	}
	return mem.Page4K
}

// Table is one radix page table.
type Table struct {
	levels int
	alloc  FrameAlloc
	root   mem.PAddr
	ptes   pteStore

	nodeCount int
	mapped4K  uint64
	mapped2M  uint64
}

// New builds an empty table with the given depth (4 for x86-64, 5 for the
// extended format the paper cites as motivation).
func New(alloc FrameAlloc, levels int) (*Table, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &Table{levels: levels, alloc: alloc, ptes: newPTEStore()}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// newNode takes a frame for a fresh (empty) node. An empty node stores
// nothing: its entries appear in the PTE store as they are written.
func (t *Table) newNode() (mem.PAddr, error) {
	frame, err := t.alloc.Alloc4K()
	if err != nil {
		return 0, fmt.Errorf("pagetable: allocating node: %w", err)
	}
	t.nodeCount++
	return frame, nil
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.levels }

// Root returns the root node's frame address (the CR3 analogue).
func (t *Table) Root() mem.PAddr { return t.root }

// NodeCount returns the number of table nodes allocated so far.
func (t *Table) NodeCount() int { return t.nodeCount }

// MappedPages returns the number of 4K and 2M mappings installed.
func (t *Table) MappedPages() (p4k, p2m uint64) { return t.mapped4K, t.mapped2M }

// index extracts the 9-bit index for the given level (levels..1).
func index(v mem.VAddr, level int) int {
	shift := uint(mem.PageShift4K) + 9*uint(level-1)
	return int(uint64(v)>>shift) & (entriesPerNode - 1)
}

// pteAddr is the address of the entry for v in the level-level node at
// frame node.
func pteAddr(node mem.PAddr, v mem.VAddr, level int) mem.PAddr {
	return node + mem.PAddr(index(v, level)*entryBytes)
}

// leafLevel returns the level at which a page of the given size terminates.
func leafLevel(size mem.PageSize) int {
	if size == mem.Page2M {
		return 2
	}
	return 1
}

// Map installs a translation from the page containing v to frame. Frame
// must be aligned to the page size. Remapping an existing page to a
// different frame, or crossing a previously installed mapping of another
// size, is an error — the simulator never remaps.
func (t *Table) Map(v mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
	if uint64(frame)&(size.Bytes()-1) != 0 {
		return fmt.Errorf("pagetable: frame %#x not aligned to %s page", frame, size)
	}
	stop := leafLevel(size)
	node := t.root
	for level := t.levels; level > stop; level-- {
		pte := pteAddr(node, v, level)
		w := t.ptes.get(pte)
		if w&pteLeaf != 0 {
			return fmt.Errorf("pagetable: %#x crosses existing %s leaf at level %d", v, wordSize(w), level)
		}
		if w == 0 {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			w = uint64(child) | ptePresent
			t.ptes.insert(pte, w)
		}
		node = wordFrame(w)
	}
	pte := pteAddr(node, v, stop)
	want := leafWord(frame, size)
	if w := t.ptes.get(pte); w != 0 {
		if w == want {
			return nil // idempotent remap of the identical translation
		}
		return fmt.Errorf("pagetable: %#x already mapped", v)
	}
	t.ptes.insert(pte, want)
	if size == mem.Page2M {
		t.mapped2M++
	} else {
		t.mapped4K++
	}
	return nil
}

// Lookup translates v without recording steps. It returns the mapped
// frame, the page size, and whether a mapping exists.
func (t *Table) Lookup(v mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	node := t.root
	for level := t.levels; level >= 1; level-- {
		w := t.ptes.get(pteAddr(node, v, level))
		if w == 0 {
			return 0, 0, false
		}
		if w&pteLeaf != 0 {
			return wordFrame(w), wordSize(w), true
		}
		node = wordFrame(w)
	}
	return 0, 0, false
}

// Translate resolves v to a full physical address (frame plus in-page
// offset), or false if unmapped.
func (t *Table) Translate(v mem.VAddr) (mem.PAddr, bool) {
	frame, size, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return frame + mem.PAddr(mem.PageOffset(v, size)), true
}

// Walk translates v, appending each touched PTE's address to steps (the
// 1-D walk of Figure 2a). It returns the extended slice, the leaf frame,
// the page size and whether the translation exists; on a failed walk the
// steps up to and including the non-present entry are still returned,
// since hardware touches them before faulting.
func (t *Table) Walk(v mem.VAddr, steps []Step) ([]Step, mem.PAddr, mem.PageSize, bool) {
	node := t.root
	for level := t.levels; level >= 1; level-- {
		pte := pteAddr(node, v, level)
		steps = append(steps, Step{Addr: pte, Level: level})
		w := t.ptes.get(pte)
		if w == 0 {
			return steps, 0, 0, false
		}
		if w&pteLeaf != 0 {
			return steps, wordFrame(w), wordSize(w), true
		}
		node = wordFrame(w)
	}
	return steps, 0, 0, false
}

// NodeFrameAt returns the frame address of the interior node that a walk
// for v reaches at the given level, or false if the path is not populated
// that deep. The walker's MMU caches (PSC) use it to skip upper levels.
func (t *Table) NodeFrameAt(v mem.VAddr, level int) (mem.PAddr, bool) {
	if level >= t.levels || level < 1 {
		return 0, false
	}
	node := t.root
	for l := t.levels; l > level; l-- {
		w := t.ptes.get(pteAddr(node, v, l))
		if w == 0 || w&pteLeaf != 0 {
			return 0, false
		}
		node = wordFrame(w)
	}
	return node, true
}

// pteStore maps PTE addresses to PTE words: a grow-on-demand
// open-addressing hash table with linear probing over interleaved
// address/word slots, so a probe usually reads one host cache line.
//
// Keying by PTE address rather than keeping a node object per frame is
// what keeps big sparse address spaces cheap. A fragmented heap populates
// only a handful of the 512 slots in each leaf node, so a dense 512-entry
// array per node would make large simulations memory-hungry, and a Go map
// per node (plus a frame-to-node index) costs two map lookups and a
// pointer chase per walk step. Here each present PTE costs one 16-byte
// slot at no more than 3/4 load, sparse or dense, and each step one probe.
//
// Address 0 is an ordinary key — a scrambled allocator hands out frame 0
// first — so emptiness is carried by the word: stored words are never
// zero (ptePresent is always set).
type pteStore struct {
	slots []pteSlot
	n     int
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
}

type pteSlot struct {
	addr mem.PAddr
	word uint64
}

const pteStoreInitialLog2 = 8 // 256 slots: a fresh table holds a few PTEs

func newPTEStore() pteStore {
	return pteStore{slots: make([]pteSlot, 1<<pteStoreInitialLog2), shift: 64 - pteStoreInitialLog2}
}

// home is the first slot probed for addr: a multiplicative hash of the
// entry index (PTE addresses are 8-byte aligned), keeping the high bits.
// The multiplier is splitmix64's, not the golden ratio the scrambled
// frame allocator permutes with, so the two never correlate.
func (s *pteStore) home(addr mem.PAddr) uint64 {
	return (uint64(addr) >> 3) * 0xBF58476D1CE4E5B9 >> s.shift
}

// get returns the word stored at addr, or 0 if the entry is absent.
func (s *pteStore) get(addr mem.PAddr) uint64 {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(addr); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.word == 0 || sl.addr == addr {
			return sl.word
		}
	}
}

// insert stores word (nonzero) at addr, which must be absent: entries are
// written once, since the simulator never remaps.
func (s *pteStore) insert(addr mem.PAddr, word uint64) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	i := s.home(addr)
	for s.slots[i].word != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = pteSlot{addr: addr, word: word}
	s.n++
}

func (s *pteStore) grow() {
	old := s.slots
	s.slots = make([]pteSlot, 2*len(old))
	s.shift--
	s.n = 0
	for _, sl := range old {
		if sl.word != 0 {
			s.insert(sl.addr, sl.word)
		}
	}
}
