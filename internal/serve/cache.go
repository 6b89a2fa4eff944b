package serve

import (
	"sync"
	"sync/atomic"
)

// rowCache is one table's hot-row result cache: decrypted (and already
// verified) row vectors keyed by row index, each entry stamped with the
// table epoch its fetch was enqueued under. A get at a newer epoch drops
// the entry instead of returning it — that comparison is the whole
// staleness story: Reencrypt and Reshard bump Table.Epoch, so
// post-rotation lookups can never observe pre-rotation plaintext, with
// no invalidation broadcast needed.
//
// Layout: a set-associative slot table reserved once, at AddTable. A row
// hashes to one set of up to cacheWays slots; each slot is a metadata
// record (sequence word, row, epoch, flags, reference bit) plus cols
// words in one value arena, so the cache owns its rows and never pins
// the batch result a row arrived in.
//
// Reads take no lock. Each slot is a seqlock: a writer makes the
// sequence word odd, rewrites the slot, and makes it even again; a
// reader copies the slot between two loads of the word and discards the
// copy if they differ. Every shared word is read and written atomically.
// Writes (put, and dropping a stale entry) take the set's mutex. A put
// into a full set first reuses a slot holding an older epoch's row, and
// otherwise evicts by CLOCK: a hit sets the slot's reference bit if it is
// clear, and the eviction hand passes over (and clears) referenced slots.
type rowCache struct {
	slots []cacheSlot
	vals  []uint64 // slot i's row is vals[i*cols : (i+1)*cols]
	sets  []cacheSet
	ways  int // slots per set; 0 disables the cache (gets miss, puts drop)
	cols  int
	met   *metrics
}

// cacheWays is the associativity: a row may live in any of its set's
// cacheWays slots.
const cacheWays = 8

// cacheSlot is one entry's metadata; its row values live in the arena.
// seq is odd while a writer holds the slot.
type cacheSlot struct {
	seq   atomic.Uint64
	row   atomic.Uint64
	epoch atomic.Uint64
	flags atomic.Uint32
	ref   atomic.Uint32 // CLOCK reference bit
}

const (
	slotLive uint32 = 1 << iota
	slotVerified
	slotDegraded
)

// cacheSet serializes the writers of one set and carries its CLOCK hand.
type cacheSet struct {
	mu   sync.Mutex
	hand int
}

// rowEntry is one row vector plus the result flags its fetch carried, so
// cache-served contributions report Verified/Degraded exactly as a fresh
// fetch would.
type rowEntry struct {
	vals     []uint64
	verified bool
	degraded bool
}

// cacheResult is a get's outcome.
type cacheResult uint8

const (
	cacheMiss cacheResult = iota
	cacheHit
	// cacheStale: the row was cached at an older epoch, and this get
	// dropped the entry. Exactly one get observes each dropped entry.
	cacheStale
)

// newRowCache reserves a table's cache: maxRows slots of cols words, as
// sets of cacheWays slots (a single narrower set below that), never more
// than maxRows in total. maxRows < 0 disables caching (every get is a
// miss).
func newRowCache(maxRows, cols int, met *metrics) *rowCache {
	c := &rowCache{cols: cols, met: met}
	if maxRows <= 0 {
		return c
	}
	c.ways = min(maxRows, cacheWays)
	nsets := maxRows / c.ways
	c.sets = make([]cacheSet, nsets)
	c.slots = make([]cacheSlot, nsets*c.ways)
	c.vals = make([]uint64, nsets*c.ways*cols)
	return c
}

// set returns the index of row's set: a multiplicative hash scaled onto
// [0, len(sets)) by its high bits.
func (c *rowCache) set(row int) int {
	h := uint64(row) * 0x9E3779B97F4A7C15
	return int((h >> 32) * uint64(len(c.sets)) >> 32)
}

// get copies row's cached vector into dst (len ≥ cols) if the cache holds
// it at exactly the given epoch. An entry from an older epoch is stale:
// get drops it and reports cacheStale, and the caller fetches fresh. A
// read torn by a concurrent writer is a miss.
func (c *rowCache) get(row int, epoch uint64, dst []uint64) (rowEntry, cacheResult) {
	if c.ways == 0 {
		return rowEntry{}, cacheMiss
	}
	base := c.set(row) * c.ways
	for i := base; i < base+c.ways; i++ {
		s := &c.slots[i]
		seq := s.seq.Load()
		if seq&1 != 0 || s.row.Load() != uint64(row) {
			continue
		}
		fl := s.flags.Load()
		if fl&slotLive == 0 {
			continue
		}
		if e := s.epoch.Load(); e != epoch {
			if e < epoch && c.dropStale(i, row, epoch) {
				return rowEntry{}, cacheStale
			}
			return rowEntry{}, cacheMiss
		}
		src := c.vals[i*c.cols : (i+1)*c.cols]
		dst = dst[:len(src)]
		for j := range src {
			dst[j] = atomic.LoadUint64(&src[j])
		}
		if s.seq.Load() != seq {
			return rowEntry{}, cacheMiss
		}
		if s.ref.Load() == 0 {
			s.ref.Store(1)
		}
		return rowEntry{vals: dst, verified: fl&slotVerified != 0, degraded: fl&slotDegraded != 0}, cacheHit
	}
	return rowEntry{}, cacheMiss
}

// dropStale empties slot i if it still holds row at an epoch older than
// epoch, reporting whether this call emptied it.
func (c *rowCache) dropStale(i, row int, epoch uint64) bool {
	st := &c.sets[i/c.ways]
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &c.slots[i]
	if s.flags.Load()&slotLive == 0 || s.row.Load() != uint64(row) || s.epoch.Load() >= epoch {
		return false
	}
	s.seq.Add(1)
	s.flags.Store(0)
	s.seq.Add(1)
	return true
}

// put copies a row fetched under the given epoch into the cache. An
// existing entry at a newer epoch wins — a slow pre-rotation fetch
// landing after a post-rotation one must not clobber the fresh value.
func (c *rowCache) put(row int, epoch uint64, e rowEntry) {
	if c.ways == 0 {
		return
	}
	set := c.set(row)
	st := &c.sets[set]
	st.mu.Lock()
	defer st.mu.Unlock()
	base := set * c.ways
	// free is the first slot that holds nothing servable: empty, or
	// holding a row from an epoch older than this one, which no lookup
	// sampling this epoch or a later one can hit.
	slot, free := -1, -1
	for i := base; i < base+c.ways; i++ {
		s := &c.slots[i]
		live := s.flags.Load()&slotLive != 0
		if live && s.row.Load() == uint64(row) {
			if s.epoch.Load() > epoch {
				return
			}
			slot = i
			break
		}
		if free < 0 && (!live || s.epoch.Load() < epoch) {
			free = i
		}
	}
	if slot < 0 {
		slot = free
		if slot < 0 {
			slot = c.clockVictim(st, base)
		}
		if c.slots[slot].flags.Load()&slotLive != 0 {
			c.met.cacheEvicts.inc()
		}
		c.slots[slot].ref.Store(0) // a new row earns its reference bit with a hit
	}
	s := &c.slots[slot]
	fl := slotLive
	if e.verified {
		fl |= slotVerified
	}
	if e.degraded {
		fl |= slotDegraded
	}
	s.seq.Add(1)
	s.row.Store(uint64(row))
	s.epoch.Store(epoch)
	s.flags.Store(fl)
	dst := c.vals[slot*c.cols : (slot+1)*c.cols]
	for j, v := range e.vals[:c.cols] {
		atomic.StoreUint64(&dst[j], v)
	}
	s.seq.Add(1)
}

// clockVictim advances the hand of the set at base past referenced
// slots, clearing their bits, and returns the first unreferenced slot —
// or, if readers kept every way referenced for a whole turn, the slot the
// hand started on.
func (c *rowCache) clockVictim(st *cacheSet, base int) int {
	for range c.ways {
		i := base + st.hand
		if c.slots[i].ref.Load() == 0 {
			break
		}
		c.slots[i].ref.Store(0)
		st.hand = (st.hand + 1) % c.ways
	}
	i := base + st.hand
	st.hand = (st.hand + 1) % c.ways
	return i
}

// len reports the live entry count (debug/tests).
func (c *rowCache) len() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].flags.Load()&slotLive != 0 {
			n++
		}
	}
	return n
}
