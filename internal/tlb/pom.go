package tlb

import (
	"fmt"
	"slices"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/stats"
)

// POM is the part-of-memory L3 TLB (Ryoo et al., ISCA'17), the substrate
// CSALT is architected over: a large set-associative TLB occupying an
// explicit physical address range in die-stacked DRAM. Because it is
// memory-mapped, each set's 64-byte line can be cached in the L2/L3 data
// caches; the memory system classifies any address inside [Base,
// Base+Size) as a Translation access (§3.1).
//
// One 64-byte line holds one set of four 16-byte entries (tag + frame), so
// a lookup is a single memory access — the property that makes POM-TLB
// cheaper per miss than TSB's chained lookups (§5.2).
type POM struct {
	base     mem.PAddr
	sizeB    uint64
	sets     uint64
	ways     int
	entries  []entry  // reference layout (nil in flat mode)
	fw       []uint64 // packed one-line-per-set flat layout (nil in reference mode)
	nBySize  [2]int   // flat mode: valid entries per page size
	flat     bool
	next     uint64
	hashSeed uint64

	// tr receives fill/evict events; nil keeps the insert path silent.
	tr *obs.Tracer
	// ip receives attribution hooks; nil unless a plane is attached.
	ip *introspect.Probe

	Accesses stats.HitRate
	Inserts  stats.Counter
	// Lookups counts Lookup/LookupAnySize calls independently of the
	// hit/miss split, for the invariant layer's conservation cross-check.
	Lookups stats.Counter
}

// SetTrace attaches an event tracer; nil detaches.
func (p *POM) SetTrace(t *obs.Tracer) { p.tr = t }

// Sets returns the number of sets (lines).
func (p *POM) Sets() int { return int(p.sets) }

// SetIntrospect attaches an attribution probe; both entry layouts feed
// it identical decoded keys, so attribution is engine-invariant.
func (p *POM) SetIntrospect(pr *introspect.Probe) { p.ip = pr }

// introspectLookup records one probe outcome. Misses are keyed at 4 KB
// (the size probed first and missed last), mirroring the TLB convention.
func (p *POM) introspectLookup(v mem.VAddr, asid mem.ASID, size mem.PageSize, hit bool) {
	if p.ip == nil {
		return
	}
	vpn := mem.PageNumber(v, size)
	set := int(p.setOf(vpn, asid, size))
	key := packPOM(vpn, asid, size)
	if hit {
		p.ip.Hit(set, key)
	} else {
		p.ip.Miss(set, key)
	}
}

// RegisterMetrics publishes the POM-TLB's counters into an observability
// group. Closures keep the reads live (see cpu.RegisterMetrics).
func (p *POM) RegisterMetrics(g *obs.Group) {
	g.Counter("hits", func() uint64 { return p.Accesses.Hits.Value() })
	g.Counter("misses", func() uint64 { return p.Accesses.Misses.Value() })
	g.Counter("inserts", func() uint64 { return p.Inserts.Value() })
	g.Gauge("hit_rate", func() float64 { return p.Accesses.Rate() })
	g.Gauge("utilization", p.Utilization)
}

// EntriesPerLine is the POM-TLB's set associativity: four 16-byte entries
// per 64-byte line.
const EntriesPerLine = 4

// NewPOM builds a POM-TLB of sizeBytes at physical address base. Size must
// be a power of two of at least one line.
func NewPOM(base mem.PAddr, sizeBytes uint64) (*POM, error) {
	p, err := newPOMGeometry(base, sizeBytes)
	if err != nil {
		return nil, err
	}
	p.entries = make([]entry, p.sets*EntriesPerLine)
	return p, nil
}

// NewPOMFlat is NewPOM with the fast engine's struct-of-arrays entry layout
// (see flat.go); behaviour is bit-identical to the reference layout.
func NewPOMFlat(base mem.PAddr, sizeBytes uint64) (*POM, error) {
	p, err := newPOMGeometry(base, sizeBytes)
	if err != nil {
		return nil, err
	}
	p.fw = make([]uint64, int(p.sets)*pomSetStride)
	p.flat = true
	return p, nil
}

// newPOMGeometry validates the geometry and returns a POM without entry
// storage; each constructor allocates only its own layout.
func newPOMGeometry(base mem.PAddr, sizeBytes uint64) (*POM, error) {
	if sizeBytes < mem.LineSize || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: POM size %d must be a power-of-two >= %d", sizeBytes, mem.LineSize)
	}
	if uint64(base)%mem.LineSize != 0 {
		return nil, fmt.Errorf("tlb: POM base %#x not line aligned", base)
	}
	return &POM{
		base:     base,
		sizeB:    sizeBytes,
		sets:     sizeBytes / mem.LineSize,
		ways:     EntriesPerLine,
		hashSeed: 0x9E3779B97F4A7C15,
	}, nil
}

// MustNewPOM is NewPOM for static configurations.
func MustNewPOM(base mem.PAddr, sizeBytes uint64) *POM {
	p, err := NewPOM(base, sizeBytes)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewPOMFlat is NewPOMFlat for static configurations.
func MustNewPOMFlat(base mem.PAddr, sizeBytes uint64) *POM {
	p, err := NewPOMFlat(base, sizeBytes)
	if err != nil {
		panic(err)
	}
	return p
}

// Base returns the POM-TLB's base physical address.
func (p *POM) Base() mem.PAddr { return p.base }

// Size returns the POM-TLB's size in bytes.
func (p *POM) Size() uint64 { return p.sizeB }

// Contains reports whether a physical address falls inside the POM-TLB
// region — the §3.1 data/TLB classification test.
func (p *POM) Contains(a mem.PAddr) bool {
	return a >= p.base && a < p.base+mem.PAddr(p.sizeB)
}

// setOf hashes (vpn, asid, size) to a set index. Mixing the ASID and the
// page size into the hash spreads the contexts' entries across the whole
// structure, and keeps the 4 KB and 2 MB entries for overlapping regions
// in distinct sets.
func (p *POM) setOf(vpn uint64, asid mem.ASID, size mem.PageSize) uint64 {
	z := vpn ^ (uint64(asid) << 40) ^ (uint64(size) << 56) ^ p.hashSeed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) & (p.sets - 1)
}

// LineAddr returns the physical address of the cacheable line holding the
// 4 KB-entry set for (v, asid). The memory system fetches this line through
// the data caches before Lookup consults the tags.
func (p *POM) LineAddr(v mem.VAddr, asid mem.ASID) mem.PAddr {
	return p.LineAddrSized(v, asid, mem.Page4K)
}

// LineAddrSized is LineAddr for an explicit page size; huge-page entries
// live in their own sets (the POM-TLB paper keeps per-size structures).
func (p *POM) LineAddrSized(v mem.VAddr, asid mem.ASID, size mem.PageSize) mem.PAddr {
	set := p.setOf(mem.PageNumber(v, size), asid, size)
	return p.base + mem.PAddr(set*mem.LineSize)
}

// Peek loads the first word of the set that a size-size fill for (v,
// asid) goes to, in either layout, and returns it. The value means
// nothing outside the package. Peeking a batch of fills before inserting
// any lets the host CPU overlap their cache misses instead of taking
// them one insert at a time; the inserts must still run in order, since
// insert order within a set fixes ranks and evictions.
func (p *POM) Peek(v mem.VAddr, asid mem.ASID, size mem.PageSize) uint64 {
	set := p.setOf(mem.PageNumber(v, size), asid, size)
	if p.flat {
		return p.fw[set*pomSetStride]
	}
	return p.entries[set*EntriesPerLine].seq
}

// Equal reports whether p and q hold the same entries in the same ways at
// the same recency. Counters, tracers and probes are not compared, and
// POM-TLBs of different layouts are never equal.
func (p *POM) Equal(q *POM) bool {
	return p.flat == q.flat && p.base == q.base && p.sets == q.sets &&
		p.next == q.next && p.nBySize == q.nBySize &&
		slices.Equal(p.fw, q.fw) && slices.Equal(p.entries, q.entries)
}

// probe searches one size's set for (v, asid).
func (p *POM) probe(v mem.VAddr, asid mem.ASID, size mem.PageSize) (mem.PAddr, bool) {
	if p.flat {
		return p.probeFlat(v, asid, size)
	}
	vpn := mem.PageNumber(v, size)
	base := int(p.setOf(vpn, asid, size)) * p.ways
	for w := 0; w < p.ways; w++ {
		e := &p.entries[base+w]
		if e.valid && e.asid == asid && e.vpn == vpn && e.size == size {
			p.next++
			e.seq = p.next
			return e.frame, true
		}
	}
	return 0, false
}

// Lookup checks for a 4 KB translation of (v, asid); most deployments
// (virtualized, 4 KB-granular host frames) only use this probe.
func (p *POM) Lookup(v mem.VAddr, asid mem.ASID) (mem.PAddr, bool) {
	p.Lookups.Inc()
	if frame, ok := p.probe(v, asid, mem.Page4K); ok {
		p.Accesses.Hit()
		p.introspectLookup(v, asid, mem.Page4K, true)
		return frame, true
	}
	p.Accesses.Miss()
	p.introspectLookup(v, asid, mem.Page4K, false)
	return 0, false
}

// LookupAnySize probes 4 KB then 2 MB entries, returning the matched size.
// Native huge-page systems use it; the second probe costs a second line
// fetch, which the caller charges via LineAddrSized.
func (p *POM) LookupAnySize(v mem.VAddr, asid mem.ASID) (mem.PAddr, mem.PageSize, bool) {
	p.Lookups.Inc()
	if frame, ok := p.probe(v, asid, mem.Page4K); ok {
		p.Accesses.Hit()
		p.introspectLookup(v, asid, mem.Page4K, true)
		return frame, mem.Page4K, true
	}
	if frame, ok := p.probe(v, asid, mem.Page2M); ok {
		p.Accesses.Hit()
		p.introspectLookup(v, asid, mem.Page2M, true)
		return frame, mem.Page2M, true
	}
	p.Accesses.Miss()
	p.introspectLookup(v, asid, mem.Page4K, false)
	return 0, 0, false
}

// Insert installs a 4 KB translation into its set, LRU-evicting on
// conflict. The caller is responsible for the corresponding dirty-line
// write into the cache hierarchy (the POM line was modified).
func (p *POM) Insert(v mem.VAddr, asid mem.ASID, frame mem.PAddr) {
	p.InsertSizedAt(0, v, asid, frame, mem.Page4K)
}

// InsertAt is Insert stamped with the fill's completion cycle, which the
// tracer records on the fill (and any evict) event.
func (p *POM) InsertAt(now uint64, v mem.VAddr, asid mem.ASID, frame mem.PAddr) {
	p.InsertSizedAt(now, v, asid, frame, mem.Page4K)
}

// InsertSized installs a translation of an explicit page size.
func (p *POM) InsertSized(v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	p.InsertSizedAt(0, v, asid, frame, size)
}

// InsertSizedAt installs a translation of an explicit page size, stamping
// any trace events with the given cycle. A refresh of an existing entry is
// not a fill; an evict event fires only when a valid entry for a different
// page is displaced.
func (p *POM) InsertSizedAt(now uint64, v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	if p.flat {
		p.insertFlat(now, v, asid, frame, size)
		return
	}
	vpn := mem.PageNumber(v, size)
	base := int(p.setOf(vpn, asid, size)) * p.ways
	victim := base
	for w := 0; w < p.ways; w++ {
		e := &p.entries[base+w]
		if e.valid && e.asid == asid && e.vpn == vpn && e.size == size {
			p.next++
			e.frame, e.seq = frame, p.next
			return
		}
		if !e.valid {
			victim = base + w
			break
		}
		if e.seq < p.entries[victim].seq {
			victim = base + w
		}
	}
	if ev := &p.entries[victim]; ev.valid {
		p.tr.POMEvict(now, uint64(ev.asid), ev.vpn)
		if p.ip != nil {
			p.ip.Evict(int(p.setOf(vpn, asid, size)), packPOM(ev.vpn, ev.asid, ev.size), uint64(asid))
		}
	}
	p.next++
	p.entries[victim] = entry{vpn: vpn, asid: asid, frame: frame, size: size, seq: p.next, valid: true}
	p.Inserts.Inc()
	p.tr.POMFill(now, uint64(asid), vpn)
	if p.ip != nil {
		p.ip.Fill(int(p.setOf(vpn, asid, size)), packPOM(vpn, asid, size), uint64(asid))
	}
}

// ResetStats zeroes the hit/miss/insert/lookup counters together (warmup
// boundary), keeping the Lookups == Hits+Misses conservation intact.
func (p *POM) ResetStats() {
	p.Accesses.Reset()
	p.Inserts = 0
	p.Lookups = 0
}

// CheckConservation verifies Hits+Misses == Lookups, returning a detail
// string when broken ("" while the invariant holds).
func (p *POM) CheckConservation() string {
	h, m, l := p.Accesses.Hits.Value(), p.Accesses.Misses.Value(), p.Lookups.Value()
	if h+m != l {
		return fmt.Sprintf("hits(%d)+misses(%d) != lookups(%d)", h, m, l)
	}
	return ""
}

// Utilization returns the fraction of POM entries currently valid.
func (p *POM) Utilization() float64 {
	if p.flat {
		return p.utilizationFlat()
	}
	valid := 0
	for i := range p.entries {
		if p.entries[i].valid {
			valid++
		}
	}
	return float64(valid) / float64(len(p.entries))
}
