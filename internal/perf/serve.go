package perf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/dlrm"
	"secndp/internal/remote/faultproxy"
	"secndp/internal/serve"
	"secndp/internal/telemetry"
)

// ServeReport is the closed-loop load-harness stage: a multi-tenant
// serving workload — Zipfian row popularity, many concurrent users, one
// bag per table per request — driven against the same 2-shard loopback
// cluster twice: per-request facade fan-out (the baseline every
// embedding server starts from) and the serving layer (admission,
// hot-row cache, cross-user coalescing). The ratios are
// machine-independent and CI-gated; the absolute QPS numbers are not.
type ServeReport struct {
	Users        int     `json:"users"`
	Tables       int     `json:"tables"`
	RowsPerTable int     `json:"rows_per_table"`
	BagSize      int     `json:"bag_size"`
	ZipfS        float64 `json:"zipf_s"`
	DurationSec  float64 `json:"duration_sec"`

	// Saturation (closed-loop, zero think time).
	BaselineQPS   float64 `json:"baseline_qps"`
	BaselineP99Ns float64 `json:"baseline_p99_ns"`
	CoalescedQPS  float64 `json:"coalesced_qps"`
	SpeedupX      float64 `json:"speedup_x"`
	P50Ns         float64 `json:"p50_ns"`
	P99Ns         float64 `json:"p99_ns"`
	P999Ns        float64 `json:"p999_ns"`

	// Serving-layer internals over the coalesced saturation run.
	CoalescingFactor float64 `json:"coalescing_factor"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	RowsFetched      uint64  `json:"rows_fetched"`
	RowRefs          uint64  `json:"row_refs"`

	// Fixed offered load at half the measured saturation QPS.
	OfferedQPS   float64 `json:"offered_qps"`
	AchievedQPS  float64 `json:"achieved_qps"`
	OfferedP50Ns float64 `json:"offered_p50_ns"`
	OfferedP99Ns float64 `json:"offered_p99_ns"`
	// What the serving layer adds around its own NDP fetch at that load:
	// lookup p50 over the median coalesced-batch latency of the same
	// stage (secndp_serve_batch_seconds, interpolated within its bucket).
	// A ratio, so it survives a change of runner: 2.7-4.5 on a 2-vCPU
	// box (CI gates it at 10).
	BatchP50Ns             float64 `json:"batch_p50_ns"`
	OfferedP50OverBatchP50 float64 `json:"offered_p50_over_batch_p50"`

	// Overload stage: a burst into a deliberately tiny admission envelope.
	Shed      uint64 `json:"shed"`
	ShedTyped bool   `json:"shed_typed"`
}

// percentile returns the p-quantile (0 < p <= 1) of sorted durations.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// batchHist snapshots the serving layer's coalesced-batch latency
// histogram (zero value if the registry has none yet).
func batchHist(reg *telemetry.Registry) telemetry.HistSnap {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "secndp_serve_batch_seconds" {
			return h
		}
	}
	return telemetry.HistSnap{}
}

// histMedianNs is the median of the observations made between two
// snapshots of one histogram, interpolated linearly within its bucket
// (the +Inf bucket reads as its lower bound). 0 if there were none.
func histMedianNs(before, after telemetry.HistSnap) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	half, seen := float64(total)/2, 0.0
	for i, c := range counts {
		if c == 0 || seen+float64(c) < half {
			seen += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(after.BoundsNs[i-1])
		}
		if i >= len(after.BoundsNs) {
			return lo
		}
		return lo + (float64(after.BoundsNs[i])-lo)*(half-seen)/float64(c)
	}
	return 0
}

// serveFixture is the shared cluster + tables the three load runs reuse.
type serveFixture struct {
	tabs   []*secndp.Table
	closes []func()
	spec   dlrm.TrafficSpec
	users  int
}

func (f *serveFixture) Close() {
	for i := len(f.closes) - 1; i >= 0; i-- {
		f.closes[i]()
	}
}

func newServeFixture(quick bool) (*serveFixture, error) {
	ctx := context.Background()
	f := &serveFixture{
		users: 64,
		spec: dlrm.TrafficSpec{
			Tables:       4,
			RowsPerTable: 512,
			BagSize:      8,
			ZipfS:        1.07,
			MaxWeight:    8, // SparseLengthsWeightedSum-shaped bags
		},
	}
	if quick {
		f.spec.RowsPerTable = 256
	}
	// One 2-shard loopback cluster; all four tables live on the same two
	// servers at disjoint memory regions, like tenant tables on shared
	// NDP-enabled DIMMs.
	specs := make([]secndp.ShardSpec, 2)
	for i := range specs {
		srv := secndp.NewServer(secndp.NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		f.closes = append(f.closes, func() { srv.Close() })
		specs[i] = secndp.ShardSpec{Addr: addr}
	}
	eng, err := secndp.New([]byte(benchKey),
		secndp.WithTransport(secndp.TransportConfig{
			Retry: secndp.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
				MaxDelay: 5 * time.Millisecond},
		}))
	if err != nil {
		f.Close()
		return nil, err
	}
	const cols = 16
	rng := rand.New(rand.NewSource(11))
	for t := 0; t < f.spec.Tables; t++ {
		rows := make([][]uint64, f.spec.RowsPerTable)
		for i := range rows {
			rows[i] = make([]uint64, cols)
			for j := range rows[i] {
				rows[i][j] = rng.Uint64() % (1 << 20)
			}
		}
		tab, err := eng.CreateTable(ctx, secndp.ClusterBackend(specs...), secndp.TableSpec{
			Name: fmt.Sprintf("serve-emb%d", t),
			Rows: f.spec.RowsPerTable, Cols: cols,
			Base:    uint64(0x1000 + t*(32<<20)),
			TagBase: uint64(0x1000 + t*(32<<20) + 16<<20),
		}, rows)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.closes = append(f.closes, func() { tab.Close() })
		f.tabs = append(f.tabs, tab)
	}
	return f, nil
}

// closedLoop drives users concurrent closed-loop clients against do for
// the given duration (interval > 0 paces each user to one request per
// interval — fixed offered load). It returns completed request count
// and the sorted latency distribution; any request error aborts the run.
func (f *serveFixture) closedLoop(d time.Duration, interval time.Duration, do func(user int, bags []dlrm.LookupBag) error) (int, []time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
		done     atomic.Bool
	)
	time.AfterFunc(d, func() { done.Store(true) })
	for u := 0; u < f.users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			traffic, err := dlrm.NewTraffic(f.spec, int64(1000+u))
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			var mine []time.Duration
			next := time.Now()
			for !done.Load() {
				if interval > 0 {
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
					next = next.Add(interval)
				}
				bags := traffic.Next()
				start := time.Now()
				if err := do(u, bags); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mine = append(mine, time.Since(start))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(u)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, nil, firstErr
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return len(lats), lats, nil
}

// serveStage runs the load harness and distills the ServeReport.
func serveStage(quick bool, reg *telemetry.Registry) (*ServeReport, error) {
	f, err := newServeFixture(quick)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ctx := context.Background()

	runFor := time.Second
	if quick {
		runFor = 400 * time.Millisecond
	}
	rep := &ServeReport{
		Users:        f.users,
		Tables:       f.spec.Tables,
		RowsPerTable: f.spec.RowsPerTable,
		BagSize:      f.spec.BagSize,
		ZipfS:        f.spec.ZipfS,
		DurationSec:  runFor.Seconds(),
	}

	// Stage 1 — per-request fan-out baseline at saturation: every bag is
	// its own facade Query; nothing is shared across users.
	n, lats, err := f.closedLoop(runFor, 0, func(_ int, bags []dlrm.LookupBag) error {
		for _, bag := range bags {
			if _, err := f.tabs[bag.Table].Query(ctx, secndp.Request{Idx: bag.Idx, Weights: bag.Weights}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("perf: serve baseline: %w", err)
	}
	rep.BaselineQPS = float64(n) / runFor.Seconds()
	rep.BaselineP99Ns = percentile(lats, 0.99)

	// Stage 2 — the serving layer at saturation on the same cluster. The
	// cache is deliberately smaller than the table (a quarter of the
	// rows): the Zipfian hot set still fits, the tail churns the cache, and
	// the measured hit rate reflects skew rather than table size.
	svc := serve.New(serve.Config{CacheRows: f.spec.RowsPerTable / 4, Registry: reg})
	for t, tab := range f.tabs {
		if err := svc.AddTable(fmt.Sprintf("emb%d", t), tab); err != nil {
			svc.Close()
			return nil, err
		}
	}
	names := make([]string, f.spec.Tables)
	for t := range names {
		names[t] = fmt.Sprintf("emb%d", t)
	}
	toServeBags := func(bags []dlrm.LookupBag) []serve.Bag {
		out := make([]serve.Bag, len(bags))
		for i, bag := range bags {
			out[i] = serve.Bag{Table: names[bag.Table], Idx: bag.Idx, Weights: bag.Weights}
		}
		return out
	}
	n, lats, err = f.closedLoop(runFor, 0, func(_ int, bags []dlrm.LookupBag) error {
		_, err := svc.LookupBags(ctx, toServeBags(bags))
		return err
	})
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("perf: serve coalesced: %w", err)
	}
	st := svc.Stats()
	rep.CoalescedQPS = float64(n) / runFor.Seconds()
	rep.P50Ns = percentile(lats, 0.50)
	rep.P99Ns = percentile(lats, 0.99)
	rep.P999Ns = percentile(lats, 0.999)
	rep.CoalescingFactor = st.CoalescingFactor()
	rep.CacheHitRate = st.CacheHitRate()
	rep.RowsFetched = st.RowsFetched
	rep.RowRefs = st.RowRefs
	if rep.BaselineQPS > 0 {
		rep.SpeedupX = rep.CoalescedQPS / rep.BaselineQPS
	}

	// Stage 3 — fixed offered load at half of saturation: the service
	// should absorb it (achieved ≈ offered) with tail latency far from
	// the saturation tail.
	rep.OfferedQPS = rep.CoalescedQPS / 2
	if rep.OfferedQPS > 0 {
		interval := time.Duration(float64(f.users) / rep.OfferedQPS * float64(time.Second))
		before := batchHist(reg)
		n, lats, err = f.closedLoop(runFor, interval, func(_ int, bags []dlrm.LookupBag) error {
			_, err := svc.LookupBags(ctx, toServeBags(bags))
			return err
		})
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("perf: serve offered-load: %w", err)
		}
		rep.AchievedQPS = float64(n) / runFor.Seconds()
		rep.OfferedP50Ns = percentile(lats, 0.50)
		rep.OfferedP99Ns = percentile(lats, 0.99)
		rep.BatchP50Ns = histMedianNs(before, batchHist(reg))
		if rep.BatchP50Ns > 0 {
			rep.OfferedP50OverBatchP50 = rep.OfferedP50Ns / rep.BatchP50Ns
		}
	}
	svc.Close()

	// Stage 4 — overload: a burst of 32 lookups into a 1-in-flight,
	// 1-queued admission envelope. The admitted lookup's fetch is held at
	// a gate, so the envelope stays full until the rest of the burst has
	// been turned away: the excess must shed with the typed error,
	// immediately.
	gate := faultproxy.NewGate(secndp.NewMemory())
	eng, err := secndp.New([]byte(benchKey))
	if err != nil {
		return nil, err
	}
	const shedRows = 32
	plain := make([][]uint64, shedRows)
	for i := range plain {
		plain[i] = make([]uint64, 16)
	}
	shedTab, err := eng.CreateTable(ctx, secndp.RemoteBackend(gate),
		secndp.TableSpec{Name: "serve-shed", Rows: shedRows, Cols: 16}, plain)
	if err != nil {
		return nil, err
	}
	defer shedTab.Close()
	tiny := serve.New(serve.Config{
		MaxInflight: 1,
		MaxQueue:    1,
		CacheRows:   -1,
	})
	defer tiny.Close()
	defer gate.Open() // before tiny.Close waits on a parked fetch
	if err := tiny.AddTable("emb0", shedTab); err != nil {
		return nil, err
	}
	gate.Shut()
	const burst = 32
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			_, err := tiny.Lookup(ctx, serve.Bag{Table: "emb0", Idx: []int{i % shedRows}})
			errs <- err
		}(i)
	}
	var typed uint64
	for i := 0; i < burst; i++ {
		if i == burst-2 {
			// One lookup holds the slot and one the queue; every other has
			// returned. Let those two finish.
			gate.Open()
		}
		if err := <-errs; err != nil {
			rep.Shed++
			if errors.Is(err, serve.ErrOverloaded) {
				typed++
			}
		}
	}
	rep.ShedTyped = rep.Shed > 0 && typed == rep.Shed

	// Mirror the gated ratios as gauges (milli-units: gauges are integers).
	reg.Gauge("secndp_perf_serve_speedup_x_milli", "Load harness: coalesced/baseline saturation QPS x1000.").Set(int64(rep.SpeedupX * 1000))
	reg.Gauge("secndp_perf_serve_coalescing_factor_milli", "Load harness: row refs per NDP row fetched x1000.").Set(int64(rep.CoalescingFactor * 1000))
	reg.Gauge("secndp_perf_serve_cache_hit_rate_milli", "Load harness: hot-row cache hit rate x1000.").Set(int64(rep.CacheHitRate * 1000))
	reg.Gauge("secndp_perf_serve_p99_ns", "Load harness: saturation p99 lookup latency (ns).").Set(int64(rep.P99Ns))
	return rep, nil
}
