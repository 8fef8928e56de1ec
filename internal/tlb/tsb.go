package tlb

import (
	"fmt"
	"slices"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/stats"
)

// TSB models an Oracle UltraSPARC-style Translation Storage Buffer (§5.2,
// §6): a software-managed, direct-mapped, memory-resident array of
// translation entries that the trap handler (here, the memory system)
// consults on a TLB miss. Each 16-byte entry holds a tag and a frame; its
// address is cacheable, so TSB traffic flows through the data caches just
// like POM-TLB traffic — but a virtualized lookup needs a *chain* of TSB
// accesses (host TSB for the guest TSB line's address, the guest TSB
// entry itself, then the host TSB for the data page), which is exactly the
// extra cache pressure the paper measures against CSALT.
type TSB struct {
	base    mem.PAddr
	entries uint64
	tags    []uint64 // packed (asid<<48 | vpn)+1; 0 = invalid
	frames  []mem.PAddr

	Accesses stats.HitRate
	// Lookups counts Lookup calls independently of the hit/miss split,
	// for the invariant layer's conservation cross-check.
	Lookups stats.Counter
}

// tsbEntryBytes is the size of one translation entry (a SPARC TTE).
const tsbEntryBytes = 16

// NewTSB builds a direct-mapped TSB of sizeBytes at base (in whatever
// address domain the TSB lives: gPA for a guest TSB, hPA for the host's).
func NewTSB(base mem.PAddr, sizeBytes uint64) (*TSB, error) {
	if sizeBytes < tsbEntryBytes || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: TSB size %d must be a power-of-two >= %d", sizeBytes, tsbEntryBytes)
	}
	if uint64(base)%mem.LineSize != 0 {
		return nil, fmt.Errorf("tlb: TSB base %#x not line aligned", base)
	}
	n := sizeBytes / tsbEntryBytes
	return &TSB{base: base, entries: n, tags: make([]uint64, n), frames: make([]mem.PAddr, n)}, nil
}

// MustNewTSB is NewTSB for static configurations.
func MustNewTSB(base mem.PAddr, sizeBytes uint64) *TSB {
	t, err := NewTSB(base, sizeBytes)
	if err != nil {
		panic(err)
	}
	return t
}

// Base returns the TSB's base address in its domain.
func (t *TSB) Base() mem.PAddr { return t.base }

// Size returns the TSB's size in bytes.
func (t *TSB) Size() uint64 { return t.entries * tsbEntryBytes }

// Contains reports whether an address falls inside the TSB region.
func (t *TSB) Contains(a mem.PAddr) bool {
	return a >= t.base && a < t.base+mem.PAddr(t.Size())
}

func (t *TSB) key(vpn uint64, asid mem.ASID) uint64 { return (uint64(asid)<<48 | vpn) + 1 }

func (t *TSB) index(vpn uint64, asid mem.ASID) uint64 {
	z := vpn ^ (uint64(asid) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9
	return (z ^ (z >> 32)) & (t.entries - 1)
}

// EntryAddr returns the line-aligned cacheable address of the TSB entry
// for (v, asid); the memory system fetches it before Lookup checks tags.
func (t *TSB) EntryAddr(v mem.VAddr, asid mem.ASID) mem.PAddr {
	idx := t.index(mem.PageNumber(v, mem.Page4K), asid)
	return mem.LineAddr(t.base + mem.PAddr(idx*tsbEntryBytes))
}

// Peek loads the entry a fill for (v, asid) overwrites and returns a word
// derived from it; see POM.Peek.
func (t *TSB) Peek(v mem.VAddr, asid mem.ASID) uint64 {
	idx := t.index(mem.PageNumber(v, mem.Page4K), asid)
	return t.tags[idx] ^ uint64(t.frames[idx])
}

// Equal reports whether t and u hold the same entries at the same
// addresses. Counters are not compared.
func (t *TSB) Equal(u *TSB) bool {
	return t.base == u.base && slices.Equal(t.tags, u.tags) && slices.Equal(t.frames, u.frames)
}

// Lookup checks the direct-mapped slot for (v, asid).
func (t *TSB) Lookup(v mem.VAddr, asid mem.ASID) (mem.PAddr, bool) {
	t.Lookups.Inc()
	vpn := mem.PageNumber(v, mem.Page4K)
	idx := t.index(vpn, asid)
	if t.tags[idx] == t.key(vpn, asid) {
		t.Accesses.Hit()
		return t.frames[idx], true
	}
	t.Accesses.Miss()
	return 0, false
}

// ResetStats zeroes the hit/miss/lookup counters together (warmup
// boundary), keeping the Lookups == Hits+Misses conservation intact.
func (t *TSB) ResetStats() {
	t.Accesses.Reset()
	t.Lookups = 0
}

// CheckConservation verifies Hits+Misses == Lookups, returning a detail
// string when broken ("" while the invariant holds).
func (t *TSB) CheckConservation() string {
	h, m, l := t.Accesses.Hits.Value(), t.Accesses.Misses.Value(), t.Lookups.Value()
	if h+m != l {
		return fmt.Sprintf("hits(%d)+misses(%d) != lookups(%d)", h, m, l)
	}
	return ""
}

// Insert installs (v, asid)→frame, displacing whatever conflicted there —
// direct-mapped structures have no recency to consult.
func (t *TSB) Insert(v mem.VAddr, asid mem.ASID, frame mem.PAddr) {
	vpn := mem.PageNumber(v, mem.Page4K)
	idx := t.index(vpn, asid)
	t.tags[idx] = t.key(vpn, asid)
	t.frames[idx] = frame
}
