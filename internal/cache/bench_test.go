package cache

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// benchShape is one cache level's geometry and fill discipline.
type benchShape struct {
	sizeKB, ways int
	// partition, when nonzero, splits the ways between data and
	// translation lines and sends a quarter of the accesses as
	// translations.
	partition int
	// demote fills with FillAtMissed, inserting half the lines at the LRU
	// end as DIP's bimodal insertion does.
	demote bool
}

// benchCacheAccess measures the lookup-miss-fill cycle of a single cache
// level, with a footprint a few times the capacity so the victim-scan and
// writeback paths stay hot.
func benchCacheAccess(b *testing.B, flat bool, sh benchShape) {
	c := MustNew(Config{
		Name:   "bench",
		SizeKB: sh.sizeKB,
		Ways:   sh.ways,
		Policy: PolicyLRU,
		Flat:   flat,
	})
	if sh.partition > 0 {
		c.SetPartition(sh.partition)
	}
	lines := uint64(sh.sizeKB * 1024 / mem.LineSize * 3)
	rng := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		addr := mem.PAddr((rng % lines) * mem.LineSize)
		write := rng&(1<<20) != 0
		typ := Data
		if sh.partition > 0 && rng&(3<<21) == 0 {
			typ = Translation
		}
		if c.Lookup(addr, typ, write) {
			continue
		}
		if sh.demote {
			c.FillAtMissed(addr, typ, write, rng&(1<<23) != 0)
		} else {
			c.Fill(addr, typ, write)
		}
	}
}

// BenchmarkCacheAccess covers both line-metadata layouts on two shapes:
// the simulator's 512 KB 8-way L2 under GUPS (flat, reference), and its
// 8 MB 16-way L3 under CSALT partitioning with DIP-style demoting fills
// (l3_flat, l3_reference). `make bench` runs it once; perfbench measures
// the whole simulator.
func BenchmarkCacheAccess(b *testing.B) {
	l2 := benchShape{sizeKB: 512, ways: 8}
	l3 := benchShape{sizeKB: 8192, ways: 16, partition: 12, demote: true}
	b.Run("flat", func(b *testing.B) { benchCacheAccess(b, true, l2) })
	b.Run("reference", func(b *testing.B) { benchCacheAccess(b, false, l2) })
	b.Run("l3_flat", func(b *testing.B) { benchCacheAccess(b, true, l3) })
	b.Run("l3_reference", func(b *testing.B) { benchCacheAccess(b, false, l3) })
}
