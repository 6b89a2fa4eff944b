package secndp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secndp"
	"secndp/internal/core"
	"secndp/internal/dlrm"
	"secndp/internal/memory"
	"secndp/internal/serve"
	"secndp/internal/telemetry"
)

// The performance gates: every timing and ratio bound the repository
// holds, one TestGate* each over testing.Benchmark (`make gates`, run by
// CI's bench-smoke). A gate comparing two sides takes the median of three
// readings a side, each reading alternating the sides call by call, so
// background load falls on both alike. -race and -short skip every gate.
// External test package: the serve gate imports internal/serve.
const (
	// The quick-fixture verified query (64 rows of 256 B) holds the full
	// fixture's 8x the rows with slack, yet a fall back to the scalar
	// kernels or a lost scratch pool still shows.
	queryVerifiedMaxNs     = 250_000
	queryVerifiedMaxAllocs = 100
	tracedQueryMaxNs       = 262_500 // tracing stays cheap enough to leave on: 5 % over
	disabledRecordMaxNs    = 25      // tens of ns for nil records = a lost nil fast path
	facadeOverCoreMax      = 1.5     // the facade stays a thin layer over the engine
	// A healthy replica group talks only to its preferred replica.
	replicatedOverUnreplicatedMax = 1.10
	// Round-robin reads win on tail latency under skew, not throughput.
	balancedOverStickyMax = 1.25
	// About twice the 1.0–1.6 the prefetching gather reads on 2 vCPUs
	// (the one-miss-at-a-time gather read 3.0–3.2).
	gatherColdOverWarmMax = 3.0
	// Coalescing plus the row cache at least double per-request fan-out,
	// coalescing merges across users, Zipfian hot rows hit the cache (0.1
	// is 25 % of the 0.42–0.44 read), and at half saturation a lookup's p50
	// stays within 10x the coalesced batch's (2.3–4.5 read).
	serveSpeedupMin         = 2.0
	serveCoalescingMin      = 1.0
	serveHitRateMin         = 0.1
	serveLookupOverBatchMax = 10.0
)

const gateKey = "0123456789abcdef"

func skipGate(t *testing.T) {
	t.Helper()
	if secndp.RaceEnabled() || testing.Short() {
		t.Skip("timing gate: skipped under -race and -short")
	}
}

// bench runs fn through testing.Benchmark and returns its ns/op and
// result; a benchmark that failed or never ran fails t.
func bench(t *testing.T, fn func(*testing.B)) (float64, testing.BenchmarkResult) {
	t.Helper()
	r := testing.Benchmark(fn)
	if r.N == 0 {
		t.Fatal("benchmark failed or did not run")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), r
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// loop runs fn b.N times.
func loop(fn func() error) func(*testing.B) {
	return func(b *testing.B) {
		for range b.N {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// underBound fails t unless fn stays under maxNs and maxAllocs per op.
func underBound(t *testing.T, maxNs float64, maxAllocs int64, fn func(*testing.B)) {
	ns, r := bench(t, fn)
	t.Logf("%.2f ns/op, %d allocs/op; bounds %.0f ns, %d allocs", ns, r.AllocsPerOp(), maxNs, maxAllocs)
	if ns >= maxNs || r.AllocsPerOp() >= maxAllocs {
		t.Fatalf("%.2f ns/op, %d allocs/op: over the bound", ns, r.AllocsPerOp())
	}
}

// ratioGate fails t unless b's median ns per call stays under max times
// a's. Each of three readings is one testing.Benchmark whose every op
// calls both, alternating which goes first (from four goroutines per CPU
// when parallel).
func ratioGate(t *testing.T, parallel bool, max float64, a, b func() error) {
	var ra, rb []float64
	for range 3 {
		var sums [2]atomic.Int64
		_, r := bench(t, func(bb *testing.B) {
			sums[0].Store(0)
			sums[1].Store(0)
			op := func(i int) {
				for k := range 2 {
					side, start := (i+k)%2, time.Now()
					if err := [2]func() error{a, b}[side](); err != nil {
						bb.Error(err)
					}
					sums[side].Add(int64(time.Since(start)))
				}
			}
			if !parallel {
				for i := range bb.N {
					op(i)
				}
				return
			}
			bb.SetParallelism(4)
			bb.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					op(i)
				}
			})
		})
		ra, rb = append(ra, float64(sums[0].Load())/float64(r.N)), append(rb, float64(sums[1].Load())/float64(r.N))
	}
	na, nb := median(ra), median(rb)
	t.Logf("readings %.0f / %.0f ns/op; medians %.0f / %.0f = %.3f, bound %.2f", ra, rb, na, nb, nb/na, max)
	if nb >= max*na {
		t.Fatalf("median ratio %.3f at or above %.2f", nb/na, max)
	}
}

func randRows(rng *rand.Rand, n, cols int) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, cols)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	return rows
}

// shardServers starts n loopback NDP servers and returns their specs.
func shardServers(t *testing.T, n int) []secndp.ShardSpec {
	specs := make([]secndp.ShardSpec, n)
	for i := range specs {
		srv := secndp.NewServer(secndp.NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		specs[i] = secndp.ShardSpec{Addr: addr}
	}
	return specs
}

// quickFixture is a 256 × 64 × 32-bit Ver-sep table in core over the
// in-process NDP and behind the facade, with one 64-row query.
type quickFixture struct {
	tab     *core.Table
	ndp     *core.HonestNDP
	facade  *secndp.Table
	idx     []int
	weights []uint64
}

func newQuickFixture(t *testing.T) *quickFixture {
	scheme, err := core.NewScheme([]byte(gateKey))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := randRows(rng, 256, 64)
	geo := core.Geometry{Params: core.Params{M: 64, We: 32}, Layout: memory.Layout{
		Placement: memory.TagSep, TagBase: 256*256 + 1<<20, NumRows: 256, RowBytes: 256}}
	f := &quickFixture{ndp: &core.HonestNDP{Mem: memory.NewSpace()}, idx: make([]int, 64), weights: make([]uint64, 64)}
	if f.tab, err = scheme.EncryptTable(f.ndp.Mem, geo, 1, rows); err != nil {
		t.Fatal(err)
	}
	eng, err := secndp.New([]byte(gateKey))
	if err != nil {
		t.Fatal(err)
	}
	f.facade, err = eng.CreateTable(context.Background(), secndp.LocalBackend(secndp.NewMemory()),
		secndp.TableSpec{Rows: 256, Cols: 64, Tags: secndp.TagsSeparate}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.facade.Close)
	for k := range f.idx {
		f.idx[k], f.weights[k] = rng.Intn(256), 1+rng.Uint64()%16
	}
	return f
}

func (f *quickFixture) coreQuery() error {
	_, err := f.tab.QueryVerified(f.ndp, f.idx, f.weights)
	return err
}

func TestGateQueryVerified(t *testing.T) {
	skipGate(t)
	underBound(t, queryVerifiedMaxNs, queryVerifiedMaxAllocs, loop(newQuickFixture(t).coreQuery))
}

func TestGateQueryTraced(t *testing.T) {
	skipGate(t)
	f, reg := newQuickFixture(t), telemetry.NewRegistry()
	underBound(t, tracedQueryMaxNs, queryVerifiedMaxAllocs, loop(func() error {
		ctx, span := reg.StartSpan(context.Background(), "gate_query")
		_, err := f.tab.QueryCtx(ctx, f.ndp, f.idx, f.weights, core.QueryOptions{Workers: 1, Verify: true})
		span.SetStatus(err == nil, false)
		span.End()
		return err
	}))
}

func TestGateDisabledTelemetry(t *testing.T) {
	skipGate(t)
	var c *telemetry.Counter
	var h *telemetry.Histogram
	var s *telemetry.ActiveSpan
	underBound(t, disabledRecordMaxNs, 1, func(b *testing.B) {
		for i := range b.N {
			c.Inc()
			h.ObserveNs(uint64(i))
			s.Event("kind", "detail")
			s.End()
		}
	})
}

func TestGateFacadeOverCore(t *testing.T) {
	skipGate(t)
	f := newQuickFixture(t)
	ratioGate(t, false, facadeOverCoreMax, f.coreQuery, func() error {
		_, err := f.facade.Query(context.Background(), secndp.Request{Idx: f.idx, Weights: f.weights})
		return err
	})
}

// clusterBatch provisions a 256 × 64 table over shards × replicas
// loopback servers and returns one QueryBatch of reqs 32-row requests.
func clusterBatch(t *testing.T, shards, replicas, reqs int, balance secndp.ReplicaBalance, pool secndp.PoolConfig) func() error {
	ctx := context.Background()
	eng, err := secndp.New([]byte(gateKey), secndp.WithTransport(secndp.TransportConfig{Pool: pool}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	tab, err := eng.CreateTable(ctx, secndp.ClusterBackend(shardServers(t, shards*replicas)...).Replicas(replicas).ReadBalance(balance),
		secndp.TableSpec{Rows: 256, Cols: 64}, randRows(rng, 256, 64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tab.Close)
	batch := make([]secndp.Request, reqs)
	for i := range batch {
		batch[i] = secndp.Request{Idx: make([]int, 32), Weights: make([]uint64, 32)}
		for k := range batch[i].Idx {
			batch[i].Idx[k], batch[i].Weights[k] = rng.Intn(256), 1+rng.Uint64()%16
		}
	}
	return func() error {
		_, err := tab.QueryBatch(ctx, batch)
		return err
	}
}

// TestGateClusterShards: the per-shard ciphertext sums run concurrently,
// so with the cores to show it four shards beat one.
func TestGateClusterShards(t *testing.T) {
	skipGate(t)
	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs: four shards cannot beat one without the cores to run them", runtime.NumCPU())
	}
	ratioGate(t, false, 1, clusterBatch(t, 1, 1, 64, secndp.ReplicaSticky, secndp.PoolConfig{}),
		clusterBatch(t, 4, 1, 64, secndp.ReplicaSticky, secndp.PoolConfig{}))
}

func TestGateReplication(t *testing.T) {
	skipGate(t)
	ratioGate(t, false, replicatedOverUnreplicatedMax, clusterBatch(t, 2, 1, 64, secndp.ReplicaSticky, secndp.PoolConfig{}),
		clusterBatch(t, 2, 2, 64, secndp.ReplicaSticky, secndp.PoolConfig{}))
}

// TestGateReadBalance: one warm connection per server (MaxIdle 1), so
// sticky routing funnels every worker through one replica's socket.
func TestGateReadBalance(t *testing.T) {
	skipGate(t)
	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs: parallel reads over two replicas need the cores to run them", runtime.NumCPU())
	}
	pool := secndp.PoolConfig{MaxIdle: 1}
	ratioGate(t, true, balancedOverStickyMax, clusterBatch(t, 1, 2, 16, secndp.ReplicaSticky, pool),
		clusterBatch(t, 1, 2, 16, secndp.ReplicaRoundRobin, pool))
}

// gatherBench times the software NDP's gather over numRows rows of random
// ciphertext: an op is one row of an sls_local-shaped query (WeightedSum
// then TagSum over 80 uniformly random 256-byte Ver-sep rows).
func gatherBench(numRows int) func(*testing.B) {
	geo := core.Geometry{Params: core.Params{M: 64, We: 32}, Layout: memory.Layout{Placement: memory.TagSep,
		TagBase: uint64(numRows*256) + 1<<20, NumRows: numRows, RowBytes: 256}}
	ndp := &core.HonestNDP{Mem: memory.NewSpace()}
	rng := rand.New(rand.NewSource(24))
	fill := make([]byte, numRows*256)
	rng.Read(fill)
	ndp.Mem.Write(geo.Layout.Base, fill)
	ndp.Mem.Write(geo.Layout.TagBase, fill[:numRows*memory.TagBytes])
	idx, weights := make([]int, 80), make([]uint64, 80)
	for k := range weights {
		weights[k] = 1 + rng.Uint64()%16
	}
	return func(b *testing.B) {
		for done := 0; done < b.N; done += len(idx) {
			for k := range idx {
				idx[k] = rng.Intn(numRows)
			}
			ndp.WeightedSum(geo, idx, weights)
			ndp.TagSum(geo, idx, weights)
		}
	}
}

// TestGateGatherColdOverWarm: the gather over 16 MiB of rows (every row
// and tag line a miss) against 256 KiB, or it has gone back to waiting
// out one miss at a time. The best of three readings counts: a noisy
// neighbour slows one side of a ratio as easily as the other.
func TestGateGatherColdOverWarm(t *testing.T) {
	skipGate(t)
	cold, warm := gatherBench(16<<20/256), gatherBench(256<<10/256)
	for attempt := 1; attempt <= 3; attempt++ {
		c, _ := bench(t, cold)
		w, _ := bench(t, warm)
		t.Logf("attempt %d: cold %.1f ns/row, warm %.1f ns/row, cold/warm %.2f", attempt, c, w, c/w)
		if c/w < gatherColdOverWarmMax {
			return
		}
	}
	t.Fatalf("cold/warm stayed at or above %.1f: the NDP gather is latency-bound", gatherColdOverWarmMax)
}

// serveLoop runs 64 users for d, each sending one request (a bag per
// table) at a time from its own Zipfian stream through do, one per
// interval when interval > 0, and returns the sorted latencies.
func serveLoop(t *testing.T, spec dlrm.TrafficSpec, d, interval time.Duration, do func([]dlrm.LookupBag) error) []time.Duration {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lats []time.Duration
	end := time.Now().Add(d)
	for u := range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traffic, err := dlrm.NewTraffic(spec, int64(1000+u))
			if err != nil {
				t.Error(err)
				return
			}
			var mine []time.Duration
			for next := time.Now(); time.Now().Before(end); next = next.Add(interval) {
				time.Sleep(time.Until(next))
				bags, start := traffic.Next(), time.Now()
				if err := do(bags); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, time.Since(start))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	slices.Sort(lats)
	return lats
}

// histMedianNs is the median of what h observed between two snapshots,
// interpolated within its bucket (the +Inf bucket reads as its lower
// bound); 0 if nothing.
func histMedianNs(before, after telemetry.HistSnap) float64 {
	counts, total := slices.Clone(after.Counts), uint64(0)
	for i := range counts {
		counts[i] -= before.Counts[i]
		total += counts[i]
	}
	seen := 0.0
	for i, c := range counts {
		if c == 0 || seen+float64(c) < float64(total)/2 {
			seen += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(after.BoundsNs[i-1])
		}
		if i == len(after.BoundsNs) {
			return lo
		}
		return lo + (float64(after.BoundsNs[i])-lo)*(float64(total)/2-seen)/float64(c)
	}
	return 0
}

// TestGateServeLoad: 64 Zipfian users × 4 tables (256 × 16) on a 2-shard
// loopback cluster, saturating per-request facade fan-out and then
// serve.Service in three alternating 400 ms readings a side (each
// coalesced reading a cold service caching a quarter of each table), then
// half the coalesced rate; then /metrics and /debug/serve.
func TestGateServeLoad(t *testing.T) {
	skipGate(t)
	const runFor = 400 * time.Millisecond
	ctx := context.Background()
	spec := dlrm.TrafficSpec{Tables: 4, RowsPerTable: 256, BagSize: 8, ZipfS: 1.07, MaxWeight: 8}
	shards := shardServers(t, 2)
	eng, err := secndp.New([]byte(gateKey))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tabs := make([]*secndp.Table, spec.Tables)
	for i := range tabs {
		base := uint64(0x1000 + i*(32<<20))
		if tabs[i], err = eng.CreateTable(ctx, secndp.ClusterBackend(shards...), secndp.TableSpec{Rows: 256, Cols: 16,
			Base: base, TagBase: base + 16<<20}, randRows(rng, 256, 16)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tabs[i].Close)
	}
	baseline := func(bags []dlrm.LookupBag) error {
		for _, bag := range bags {
			if _, err := tabs[bag.Table].Query(ctx, secndp.Request{Idx: bag.Idx, Weights: bag.Weights}); err != nil {
				return err
			}
		}
		return nil
	}
	reg := telemetry.NewRegistry()
	var svc *serve.Service
	coalesced := func(bags []dlrm.LookupBag) error {
		sb := make([]serve.Bag, len(bags))
		for i, bag := range bags {
			sb[i] = serve.Bag{Table: fmt.Sprint(bag.Table), Idx: bag.Idx, Weights: bag.Weights}
		}
		_, err := svc.LookupBags(ctx, sb)
		return err
	}
	var baseQPS, coalQPS, factor, hitRate []float64
	var lats []time.Duration
	var st serve.Stats
	for range 3 {
		baseQPS = append(baseQPS, float64(len(serveLoop(t, spec, runFor, 0, baseline)))/runFor.Seconds())
		svc = serve.New(serve.Config{CacheRows: 256 / 4, Registry: reg})
		t.Cleanup(svc.Close)
		for i, tab := range tabs {
			if err := svc.AddTable(fmt.Sprint(i), tab); err != nil {
				t.Fatal(err)
			}
		}
		lats, st = serveLoop(t, spec, runFor, 0, coalesced), svc.Stats()
		coalQPS = append(coalQPS, float64(len(lats))/runFor.Seconds())
		factor, hitRate = append(factor, st.CoalescingFactor()), append(hitRate, st.CacheHitRate())
	}
	if t.Failed() {
		t.FailNow()
	}
	p := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
	speedup := median(coalQPS) / median(baseQPS)
	t.Logf("readings: baseline %.0f/s, coalesced %.0f/s, coalescing factor %.2f, cache hit rate %.2f; median speedup %.2fx; last p50/p99/p999 %v/%v/%v",
		baseQPS, coalQPS, factor, hitRate, speedup, p(0.5), p(0.99), p(0.999))
	if speedup < serveSpeedupMin || median(factor) <= serveCoalescingMin || median(hitRate) <= serveHitRateMin {
		t.Errorf("median speedup %.2fx, coalescing factor %.2f, cache hit rate %.2f: floors %.0fx, > %.0f, > %.2f",
			speedup, median(factor), median(hitRate), serveSpeedupMin, serveCoalescingMin, serveHitRateMin)
	}
	if !(0 < st.RowsFetched && st.RowsFetched < st.RowRefs) || p(0.5) > p(0.99) || p(0.99) > p(0.999) {
		t.Errorf("last reading: %d rows fetched for %d row refs, p50/p99/p999 %v/%v/%v", st.RowsFetched, st.RowRefs, p(0.5), p(0.99), p(0.999))
	}

	batchHist := func() telemetry.HistSnap {
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == "secndp_serve_batch_seconds" {
				return h
			}
		}
		t.Fatal("no secndp_serve_batch_seconds histogram")
		return telemetry.HistSnap{}
	}
	before := batchHist()
	lats = serveLoop(t, spec, runFor, time.Duration(2*64*float64(time.Second)/median(coalQPS)), coalesced)
	batchP50 := histMedianNs(before, batchHist())
	if len(lats) == 0 || batchP50 <= 0 {
		t.Fatalf("half saturation: %d lookups, batch p50 %.0f ns", len(lats), batchP50)
	}
	ratio := float64(p(0.5)) / batchP50
	t.Logf("half saturation: %.0f/s, lookup p50 %v = %.2fx batch p50 %.0f ns", float64(len(lats))/runFor.Seconds(), p(0.5), ratio, batchP50)
	if ratio >= serveLookupOverBatchMax {
		t.Errorf("half-saturation lookup p50 is %.1fx the median coalesced batch, max %.0f", ratio, serveLookupOverBatchMax)
	}

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	metrics := get("/metrics").Body.String()
	for _, series := range []string{"secndp_serve_lookups_total", "secndp_serve_cache_hits_total",
		"secndp_serve_coalesce_joins_total", "secndp_serve_shed_total", "secndp_serve_lookup_seconds_bucket"} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	var dbg struct {
		Stats            serve.Stats
		CoalescingFactor float64 `json:"coalescing_factor"`
		Tables           map[string]any
	}
	if err := json.NewDecoder(get("/debug/serve").Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Stats.Lookups < 1 || dbg.CoalescingFactor <= 1 || len(dbg.Tables) != 4 {
		t.Errorf("/debug/serve: %d lookups, coalescing factor %.2f, %d tables", dbg.Stats.Lookups, dbg.CoalescingFactor, len(dbg.Tables))
	}
}
