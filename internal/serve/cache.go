package serve

import (
	"container/list"
	"sync"
)

// rowCache is the sharded hot-row result cache: decrypted (and already
// verified) row vectors keyed by row index, each entry stamped with the
// table epoch its fetch was enqueued under. A get at a newer epoch
// evicts the entry instead of returning it — that comparison is the
// whole staleness story: Reencrypt and Reshard bump Table.Epoch, so
// post-rotation lookups can never observe pre-rotation plaintext, with
// no invalidation broadcast needed.
//
// Sharding: 16 independent LRU shards so concurrent users on different
// rows rarely contend on one lock.
type rowCache struct {
	shards [cacheShards]cacheShard
	// perShard <= 0 disables the cache entirely (gets miss, puts drop).
	perShard int
	met      *metrics
}

const cacheShards = 16

type cacheShard struct {
	mu  sync.Mutex
	lru list.List // front = most recent; values are *cacheEnt
	idx map[int]*list.Element
}

// rowEntry is one cached row vector plus the result flags its fetch
// carried, so cache-served contributions report Verified/Degraded
// exactly as a fresh fetch would.
type rowEntry struct {
	vals     []uint64
	verified bool
	degraded bool
}

type cacheEnt struct {
	row   int
	epoch uint64
	rowEntry
}

// newRowCache sizes a cache for maxRows total entries across shards.
// maxRows < 0 disables caching (every get is a miss).
func newRowCache(maxRows int, met *metrics) *rowCache {
	c := &rowCache{met: met}
	if maxRows < 0 {
		c.perShard = 0
		return c
	}
	c.perShard = maxRows / cacheShards
	if c.perShard == 0 {
		c.perShard = 1
	}
	for i := range c.shards {
		c.shards[i].idx = make(map[int]*list.Element)
	}
	return c
}

func (c *rowCache) shard(row int) *cacheShard {
	return &c.shards[uint(row)%cacheShards]
}

// get returns the cached entry for row if one exists at exactly the
// given epoch. An entry from an older epoch is stale: it is evicted and
// counted, and the caller fetches fresh.
func (c *rowCache) get(row int, epoch uint64) (rowEntry, bool) {
	if c.perShard == 0 {
		c.met.cacheMisses.inc()
		return rowEntry{}, false
	}
	sh := c.shard(row)
	sh.mu.Lock()
	el := sh.idx[row]
	if el == nil {
		sh.mu.Unlock()
		c.met.cacheMisses.inc()
		return rowEntry{}, false
	}
	ent := el.Value.(*cacheEnt)
	if ent.epoch != epoch {
		sh.lru.Remove(el)
		delete(sh.idx, row)
		sh.mu.Unlock()
		c.met.cacheStale.inc()
		c.met.cacheMisses.inc()
		return rowEntry{}, false
	}
	sh.lru.MoveToFront(el)
	e := ent.rowEntry
	sh.mu.Unlock()
	c.met.cacheHits.inc()
	return e, true
}

// put stores a row fetched under the given epoch. An existing entry at a
// newer epoch wins — a slow pre-rotation fetch landing after a
// post-rotation one must not clobber the fresh value.
func (c *rowCache) put(row int, epoch uint64, e rowEntry) {
	if c.perShard == 0 {
		return
	}
	sh := c.shard(row)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el := sh.idx[row]; el != nil {
		ent := el.Value.(*cacheEnt)
		if ent.epoch > epoch {
			return
		}
		ent.epoch = epoch
		ent.rowEntry = e
		sh.lru.MoveToFront(el)
		return
	}
	if sh.lru.Len() >= c.perShard {
		old := sh.lru.Back()
		sh.lru.Remove(old)
		delete(sh.idx, old.Value.(*cacheEnt).row)
		c.met.cacheEvicts.inc()
	}
	sh.idx[row] = sh.lru.PushFront(&cacheEnt{row: row, epoch: epoch, rowEntry: e})
}

// len reports the live entry count (debug/tests).
func (c *rowCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
