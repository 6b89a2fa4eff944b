package serve

import (
	"sync"
	"sync/atomic"
	"testing"
)

func newTestCache(maxRows, cols int) *rowCache {
	return newRowCache(maxRows, cols, &metrics{})
}

// fill returns a row of cols copies of v.
func fill(cols int, v uint64) []uint64 {
	row := make([]uint64, cols)
	for j := range row {
		row[j] = v
	}
	return row
}

// TestRowCacheNoTornRows: writers keep rewriting every slot of one set
// with rows whose elements all equal a version number, while readers
// check that every hit they get is uniform. A hit that mixes two
// versions is a torn read the seqlock let through.
func TestRowCacheNoTornRows(t *testing.T) {
	const cols, rows = 16, 2 * cacheWays // more rows than ways: writers also evict
	c := newTestCache(cacheWays, cols)   // one set
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			vals := make([]uint64, cols)
			for v := uint64(1); !stop.Load(); v++ {
				for j := range vals {
					vals[j] = v
				}
				c.put(int(v)%rows, 1, rowEntry{vals: vals, verified: true})
			}
		}()
	}
	var hits atomic.Uint64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var dst [cols]uint64
			for pass := 0; pass < 2000; pass++ {
				for row := 0; row < rows; row++ {
					e, res := c.get(row, 1, dst[:])
					if res != cacheHit {
						continue
					}
					hits.Add(1)
					for j, v := range e.vals {
						if v != e.vals[0] || v == 0 || !e.verified {
							t.Errorf("row %d: torn hit, element %d = %d beside %d (verified %v)", row, j, v, e.vals[0], e.verified)
							return
						}
					}
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if hits.Load() == 0 {
		t.Fatal("no read hit: the test checked nothing")
	}
}

// TestRowCacheCapacity: the cache never holds more than CacheRows rows,
// and a CacheRows below one set still caches.
func TestRowCacheCapacity(t *testing.T) {
	var dst [4]uint64
	for _, n := range []int{1, 7, 8, 9, 32, 4096} {
		c := newTestCache(n, len(dst))
		last := 3*n + 16
		for row := 0; row <= last; row++ {
			c.put(row, 1, rowEntry{vals: fill(len(dst), uint64(row))})
			if n <= 32 {
				if l := c.len(); l > n {
					t.Fatalf("CacheRows %d: %d entries after %d puts", n, l, row+1)
				}
			}
		}
		if l := c.len(); l > n || l == 0 {
			t.Fatalf("CacheRows %d: %d entries", n, l)
		}
		if e, r := c.get(last, 1, dst[:]); r != cacheHit || e.vals[0] != uint64(last) {
			t.Fatalf("CacheRows %d: the last row put reads %v, %v", n, r, e.vals)
		}
	}
}

// TestRowCacheOwnsRows: the cache copies a row in and out, so neither
// the slice given to put nor a slice returned by get aliases its entry.
func TestRowCacheOwnsRows(t *testing.T) {
	c := newTestCache(32, 4)
	src := []uint64{1, 2, 3, 4}
	c.put(5, 1, rowEntry{vals: src})
	src[0] = 99
	var dst [4]uint64
	e, r := c.get(5, 1, dst[:])
	if r != cacheHit || e.vals[0] != 1 {
		t.Fatalf("after mutating put's slice: %v, %v", r, e.vals)
	}
	e.vals[1] = 99
	var dst2 [4]uint64
	if e, _ := c.get(5, 1, dst2[:]); e.vals[0] != 1 || e.vals[1] != 2 {
		t.Fatalf("after mutating get's copy: %v", e.vals)
	}
}

// TestRowCacheEpochs: a put at an older epoch never clobbers a newer
// entry, a get at an older epoch leaves it in place, a put reuses an
// older epoch's slot before evicting a live row, and a stale entry is
// dropped — and counted — by exactly one of the gets that find it.
func TestRowCacheEpochs(t *testing.T) {
	c := newTestCache(32, 2)
	var dst [2]uint64
	c.put(3, 7, rowEntry{vals: []uint64{7, 7}})
	c.put(3, 6, rowEntry{vals: []uint64{6, 6}})
	if _, r := c.get(3, 6, dst[:]); r != cacheMiss {
		t.Fatalf("get at an older epoch: %v, want a miss", r)
	}
	if e, r := c.get(3, 7, dst[:]); r != cacheHit || e.vals[0] != 7 {
		t.Fatalf("after an older put: %v, %v", r, e.vals)
	}

	// A put into a full set reuses the slot of a row from an older epoch
	// before it evicts a live one, and counts the replacement as an
	// eviction, not as stale.
	one := newTestCache(cacheWays, 2) // one set
	for row := 0; row < cacheWays; row++ {
		e := uint64(2)
		if row == 5 {
			e = 1
		}
		one.put(row, e, rowEntry{vals: fill(2, uint64(row))})
	}
	one.put(100, 2, rowEntry{vals: fill(2, 100)})
	for _, row := range []int{0, 1, 2, 3, 4, 6, 7, 100} {
		if _, r := one.get(row, 2, dst[:]); r != cacheHit {
			t.Fatalf("row %d at epoch 2 was replaced instead of the epoch-1 row", row)
		}
	}
	if _, r := one.get(5, 2, dst[:]); r != cacheMiss {
		t.Fatalf("replaced epoch-1 row: %v, want a plain miss", r)
	}
	if ev := one.met.cacheEvicts.value(); ev != 1 {
		t.Fatalf("%d evictions, want 1", ev)
	}

	var stale atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst [2]uint64
			if _, r := c.get(3, 8, dst[:]); r == cacheStale {
				stale.Add(1)
			} else if r != cacheMiss {
				t.Errorf("get at a newer epoch: %v", r)
			}
		}()
	}
	wg.Wait()
	if n := stale.Load(); n != 1 {
		t.Fatalf("one stale entry counted %d times", n)
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not dropped: %d entries", c.len())
	}
}

// TestRowCacheClockKeepsReferencedRow: a row read between cold inserts
// into its full set survives them all, while the cold rows cycle.
func TestRowCacheClockKeepsReferencedRow(t *testing.T) {
	c := newTestCache(cacheWays, 2) // one set
	var dst [2]uint64
	for row := 0; row < cacheWays; row++ {
		c.put(row, 1, rowEntry{vals: fill(2, uint64(row))})
	}
	const hot = 3
	for cold := 100; cold < 100+4*cacheWays; cold++ {
		if _, r := c.get(hot, 1, dst[:]); r != cacheHit {
			t.Fatalf("hot row evicted before cold insert %d", cold-100)
		}
		c.put(cold, 1, rowEntry{vals: fill(2, uint64(cold))})
	}
	if _, r := c.get(hot, 1, dst[:]); r != cacheHit {
		t.Fatal("hot row evicted by the last cold insert")
	}
	if _, r := c.get(100, 1, dst[:]); r != cacheMiss {
		t.Fatal("the first cold row survived a full turn of unreferenced inserts")
	}
	if ev := c.met.cacheEvicts.value(); ev != 4*cacheWays {
		t.Fatalf("%d evictions, want %d", ev, 4*cacheWays)
	}
}

// BenchmarkRowCacheGet times the lock-free hit path on a 32-column
// table from every P at once.
func BenchmarkRowCacheGet(b *testing.B) {
	const cols = 32
	c := newTestCache(4096, cols)
	var hot []int
	var dst [cols]uint64
	for row := 0; row < 1024; row++ {
		c.put(row, 1, rowEntry{vals: fill(cols, uint64(row)), verified: true})
	}
	for row := 0; row < 1024; row++ {
		if _, r := c.get(row, 1, dst[:]); r == cacheHit {
			hot = append(hot, row)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst [cols]uint64
		for i := 0; pb.Next(); i++ {
			if _, r := c.get(hot[i%len(hot)], 1, dst[:]); r != cacheHit {
				b.Error("hot row missed")
				return
			}
		}
	})
}
