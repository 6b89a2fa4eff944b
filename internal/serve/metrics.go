package serve

import (
	"sync/atomic"
	"time"

	"secndp/internal/telemetry"
)

// counter is a serve-local counter with an optional telemetry mirror.
// The local atomic makes Stats() work with a nil Registry (benchmarks,
// tests); the mirror exports the same value as a secndp_serve_* series.
type counter struct {
	v   atomic.Uint64
	tel *telemetry.Counter // nil-safe
}

func (c *counter) inc()          { c.add(1) }
func (c *counter) add(n uint64)  { c.v.Add(n); c.tel.Add(n) }
func (c *counter) value() uint64 { return c.v.Load() }

// metrics aggregates the serve layer's operational signals. Every
// counter answers one capacity-planning question: shed vs lookups is
// the overload rate, joins vs rowsFetched the coalescing factor,
// cacheHits vs cacheMisses the hot-row hit rate, windowFlushes vs
// sizeFlushes whether batches reach MaxBatch behind the one on the wire.
type metrics struct {
	lookups       counter // lookup requests entering admission
	lookupErrors  counter // lookups failed for any non-shed reason
	shed          counter // lookups rejected by admission control
	rowRefs       counter // row references across all bags
	cacheHits     counter
	cacheMisses   counter
	cacheStale    counter // cache entries dropped when read at a newer epoch
	cacheEvicts   counter // cache entries a put replaced in a full set
	joins         counter // row refs that joined an already-pending fetch
	rowsFetched   counter // distinct rows sent to the NDP
	batches       counter // coalesced QueryBatch calls issued
	windowFlushes counter // batches taken by the drain loop (the name predates it)
	sizeFlushes   counter // batches detached at MaxBatch

	lookupHist *telemetry.Histogram // nil-safe
	batchHist  *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{}
	if reg == nil {
		return m
	}
	m.lookups.tel = reg.Counter("secndp_serve_lookups_total", "embedding-bag lookups received")
	m.lookupErrors.tel = reg.Counter("secndp_serve_errors_total", "lookups failed (excluding shed)")
	m.shed.tel = reg.Counter("secndp_serve_shed_total", "lookups shed by admission control")
	m.rowRefs.tel = reg.Counter("secndp_serve_row_refs_total", "row references across all bags")
	m.cacheHits.tel = reg.Counter("secndp_serve_cache_hits_total", "row refs served from the hot-row cache")
	m.cacheMisses.tel = reg.Counter("secndp_serve_cache_misses_total", "row refs missing the hot-row cache")
	m.cacheStale.tel = reg.Counter("secndp_serve_cache_stale_total", "cache entries dropped because a lookup read them at a newer table epoch")
	m.cacheEvicts.tel = reg.Counter("secndp_serve_cache_evictions_total", "cache entries a put replaced in a full 8-way set: one from an older table epoch first, else the CLOCK victim")
	m.joins.tel = reg.Counter("secndp_serve_coalesce_joins_total", "row refs joining an already-pending fetch")
	m.rowsFetched.tel = reg.Counter("secndp_serve_rows_fetched_total", "distinct rows fetched from the NDP")
	m.batches.tel = reg.Counter("secndp_serve_batches_total", "coalesced QueryBatch calls issued")
	m.windowFlushes.tel = reg.Counter("secndp_serve_flush_window_total", "batches taken by the drain loop (idle flush or backlog behind a batch on the wire)")
	m.sizeFlushes.tel = reg.Counter("secndp_serve_flush_size_total", "batches flushed by size trigger")
	m.lookupHist = reg.Histogram("secndp_serve_lookup_seconds", "end-to-end lookup latency", nil)
	m.batchHist = reg.Histogram("secndp_serve_batch_seconds", "coalesced batch NDP latency", nil)
	return m
}

func (m *metrics) observeLookup(d time.Duration) { m.lookupHist.Observe(d) }
func (m *metrics) observeBatch(d time.Duration)  { m.batchHist.Observe(d) }

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	Lookups       uint64
	Errors        uint64
	Shed          uint64
	RowRefs       uint64
	CacheHits     uint64
	CacheMisses   uint64
	CacheStale    uint64
	CacheEvicts   uint64
	CoalesceJoins uint64
	RowsFetched   uint64
	Batches       uint64
	// WindowFlushes counts batches taken by the coalescer's drain loop —
	// at once on an idle table, or as the backlog behind a batch on the
	// wire. There is no window any more; the name stays because the
	// repository benchmark reads it.
	WindowFlushes uint64
	// SizeFlushes counts batches detached because they reached MaxBatch.
	SizeFlushes uint64
	Inflight    int64
	QueueDepth  int64
}

// CoalescingFactor is the number of row references satisfied per row
// actually fetched from the NDP — (joins + fetches) / fetches. 1.0
// means no cross-request sharing; higher is the win. Cache hits are
// accounted separately (CacheHitRate), so this isolates the batching
// effect. Returns 0 before any fetch.
func (st Stats) CoalescingFactor() float64 {
	if st.RowsFetched == 0 {
		return 0
	}
	return float64(st.CoalesceJoins+st.RowsFetched) / float64(st.RowsFetched)
}

// CacheHitRate is hits / (hits + misses); 0 before any cache access.
func (st Stats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// Stats snapshots the serving counters.
func (s *Service) Stats() Stats {
	m := s.met
	return Stats{
		Lookups:       m.lookups.value(),
		Errors:        m.lookupErrors.value(),
		Shed:          m.shed.value(),
		RowRefs:       m.rowRefs.value(),
		CacheHits:     m.cacheHits.value(),
		CacheMisses:   m.cacheMisses.value(),
		CacheStale:    m.cacheStale.value(),
		CacheEvicts:   m.cacheEvicts.value(),
		CoalesceJoins: m.joins.value(),
		RowsFetched:   m.rowsFetched.value(),
		Batches:       m.batches.value(),
		WindowFlushes: m.windowFlushes.value(),
		SizeFlushes:   m.sizeFlushes.value(),
		Inflight:      s.adm.inflightCount(),
		QueueDepth:    s.adm.queueDepth(),
	}
}

// debugState backs the /debug/serve source: the counters plus the
// derived ratios and per-table cache occupancy.
func (s *Service) debugState() any {
	st := s.Stats()
	tables := map[string]any{}
	for name, ts := range *s.tables.Load() {
		tables[name] = map[string]any{
			"rows":        ts.rows,
			"cols":        ts.cols,
			"epoch":       ts.tab.Epoch(),
			"cached_rows": ts.cache.len(),
		}
	}
	return map[string]any{
		"stats":             st,
		"coalescing_factor": st.CoalescingFactor(),
		"cache_hit_rate":    st.CacheHitRate(),
		"tables":            tables,
		"config": map[string]any{
			"max_batch":    s.cfg.MaxBatch,
			"max_inflight": s.cfg.MaxInflight,
			"max_queue":    s.cfg.MaxQueue,
			"cache_rows":   s.cfg.CacheRows,
		},
	}
}
