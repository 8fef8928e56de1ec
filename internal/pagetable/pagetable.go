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
//
// Each store slot is a single uint64 carrying both the PTE's address and
// its word. That packing is exact because every frame a table stores,
// node or leaf, lies below 2^38 (256 GB): the simulator's host RAM is
// exactly [0, 256 GB) and a VM's guest-physical space ends at 2.5 GB.
// Map and node allocation reject a frame at or above the bound, so a
// larger address fails loudly instead of aliasing another entry.
package pagetable

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
)

const (
	entriesPerNode = 512 // 9 index bits per level
	entryBytes     = 8

	// physBits bounds the address space a table lives in and maps into:
	// every node and leaf frame is below 1<<physBits.
	physBits  = 38
	physLimit = mem.PAddr(1) << physBits
)

// FrameAlloc supplies 4 KB frames for table nodes, in whatever address
// domain the table lives in. Frames must be 4 KB aligned, since a PTE
// word keeps its flags in the low 12 bits of the frame it points to, and
// below 2^38, since the PTE store packs frames into 26 bits; a table
// refuses a node frame at or above 2^38.
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
	pteFlagMask  = ptePresent | pteLeaf | pte2M
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
	if frame >= physLimit {
		return 0, fmt.Errorf("pagetable: node frame %#x not below 2^%d", frame, physBits)
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
// must be aligned to the page size and lie below 2^38. Remapping an
// existing page to a different frame, or crossing a previously installed
// mapping of another size, is an error — the simulator never remaps.
func (t *Table) Map(v mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
	if uint64(frame)&(size.Bytes()-1) != 0 {
		return fmt.Errorf("pagetable: frame %#x not aligned to %s page", frame, size)
	}
	if frame >= physLimit {
		return fmt.Errorf("pagetable: frame %#x not below 2^%d", frame, physBits)
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

// MapIfAbsent is Lookup followed, when v is unmapped, by Map of v's page
// to a frame from alloc, in one walk. It returns the leaf that translates
// v, its page size, and whether this call installed it; a mapped v leaves
// alloc uncalled. alloc runs once the walk has found v unmapped and before
// any node is allocated on its path, so the frame and the new nodes are
// allocated in the same order as by Lookup then Map. An error is alloc's
// or the one Map would return.
func (t *Table) MapIfAbsent(v mem.VAddr, size mem.PageSize, alloc func() (mem.PAddr, error)) (mem.PAddr, mem.PageSize, bool, error) {
	node := t.root
	level := t.levels
	var pte mem.PAddr
	for ; level >= 1; level-- {
		pte = pteAddr(node, v, level)
		w := t.ptes.get(pte)
		if w == 0 {
			break
		}
		if w&pteLeaf != 0 {
			return wordFrame(w), wordSize(w), false, nil
		}
		node = wordFrame(w)
	}
	frame, err := alloc()
	if err != nil {
		return 0, 0, false, err
	}
	stop := leafLevel(size)
	if level < stop || uint64(frame)&(size.Bytes()-1) != 0 || frame >= physLimit {
		// The page's leaf entry holds a node (a 2M page over a populated
		// level-1 node), or the frame is one Map refuses: Map reports it.
		return 0, 0, false, t.Map(v, frame, size)
	}
	for ; level > stop; level-- {
		child, err := t.newNode()
		if err != nil {
			return 0, 0, false, err
		}
		t.ptes.insert(pte, uint64(child)|ptePresent)
		pte = pteAddr(child, v, level-1)
	}
	t.ptes.insert(pte, leafWord(frame, size))
	if size == mem.Page2M {
		t.mapped2M++
	} else {
		t.mapped4K++
	}
	return frame, size, true, nil
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

// pteStore maps PTE addresses to PTE words: a grow-on-demand
// open-addressing hash table with linear probing over one-word slots, so
// a probe usually reads one host cache line.
//
// Keying by PTE address rather than keeping a node object per frame is
// what keeps big sparse address spaces cheap. A fragmented heap populates
// only a handful of the 512 slots in each leaf node, so a dense 512-entry
// array per node would make large simulations memory-hungry, and a Go map
// per node (plus a frame-to-node index) costs two map lookups and a
// pointer chase per walk step. Here each present PTE costs one 8-byte
// slot at no more than 7/8 load, sparse or dense, and each step one probe.
//
// The store grows at 7/8 full, the bound Go's Swiss-table maps use.
// Almost every lookup finds a mapped entry, and at the bound such a
// lookup reads 4.5 slots on average, usually within one host cache line.
// A lookup of an absent entry reads about 32 at the bound, but it happens
// once per entry, on the way to mapping it.
//
// A slot packs the entry's address and word together:
//
//	bits 63..29  PTE address >> 3 (the key: addresses are 8-byte aligned)
//	bits 28..3   frame >> 12      (next node, or mapped page when leaf)
//	bit  2       2M
//	bit  1       leaf
//	bit  0       present
//
// which holds every address below 2^38 (see the package comment). get
// unpacks the same PTE word the table stores. Address 0 is an ordinary
// key — a scrambled allocator hands out frame 0 first — so emptiness is
// carried by the flags: a stored slot always has present set, and a zero
// slot is empty.
type pteStore struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
}

const (
	pteStoreInitialLog2 = 8 // 256 slots: a fresh table holds a few PTEs

	slotKeyShift   = physBits - mem.PageShift4K + 3 // 29: above frame and flags
	slotFrameShift = mem.PageShift4K - 3            // frame>>12<<3 is frame>>9
	slotFrameMask  = (uint64(1)<<(physBits-mem.PageShift4K) - 1) << 3
)

func newPTEStore() pteStore {
	return pteStore{slots: make([]uint64, 1<<pteStoreInitialLog2), shift: 64 - pteStoreInitialLog2}
}

// home is the first slot probed for the entry with index key (its PTE
// address >> 3): a multiplicative hash keeping the high bits. The
// multiplier is splitmix64's, not the golden ratio the scrambled frame
// allocator permutes with, so the two never correlate.
func (s *pteStore) home(key uint64) uint64 {
	return key * 0xBF58476D1CE4E5B9 >> s.shift
}

// get returns the word stored at addr, or 0 if the entry is absent.
func (s *pteStore) get(addr mem.PAddr) uint64 {
	key := uint64(addr) >> 3
	mask := uint64(len(s.slots) - 1)
	for i := s.home(key); ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl == 0 {
			return 0
		}
		if sl>>slotKeyShift == key {
			return (sl&slotFrameMask)<<slotFrameShift | sl&pteFlagMask
		}
	}
}

// insert stores word (present, frame below 2^38) at addr (below 2^38),
// which must be absent: entries are written once, since the simulator
// never remaps.
func (s *pteStore) insert(addr mem.PAddr, word uint64) {
	s.put(uint64(addr)>>3<<slotKeyShift | (word&pteFrameMask)>>slotFrameShift | word&pteFlagMask)
}

// put stores a packed slot whose key is absent, doubling the store first
// if the slot would take it past 7/8 full. Below the bound at least one
// slot stays empty, which is what ends a probe for an absent key.
func (s *pteStore) put(slot uint64) {
	if 8*(s.n+1) > 7*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	i := s.home(slot >> slotKeyShift)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = slot
	s.n++
}

func (s *pteStore) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.shift--
	s.n = 0
	for _, sl := range old {
		if sl != 0 {
			s.put(sl)
		}
	}
}
