package secndp

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// The acceptance benchmark for the concurrent query engine: sharding the
// OTP pad loop across 8 workers versus the serial reference, on a batch
// large enough (512 rows) for the fan-out to amortize. On a multi-core
// machine the parallel variant is expected ≥2× faster; per-op allocations
// stay flat because each worker reuses its pad buffer.

const (
	benchParRows  = 4096
	benchParCols  = 64
	benchParBatch = 512
)

func benchParQuery(b *testing.B) (*core.Table, []int, []uint64) {
	b.Helper()
	_, _, tab, _ := benchTable(b, memory.TagSep, benchParRows, benchParCols, 32)
	rng := rand.New(rand.NewSource(42))
	idx := make([]int, benchParBatch)
	w := make([]uint64, benchParBatch)
	for k := range idx {
		idx[k] = rng.Intn(benchParRows)
		w[k] = 1 + uint64(rng.Intn(16))
	}
	return tab, idx, w
}

func benchOTPWeightedSum(b *testing.B, workers int) {
	tab, idx, w := benchParQuery(b)
	ctx := context.Background()
	opts := core.QueryOptions{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.OTPWeightedSumCtx(ctx, idx, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOTPWeightedSumSerial(b *testing.B)    { benchOTPWeightedSum(b, 1) }
func BenchmarkOTPWeightedSumParallel2(b *testing.B) { benchOTPWeightedSum(b, 2) }
func BenchmarkOTPWeightedSumParallel4(b *testing.B) { benchOTPWeightedSum(b, 4) }
func BenchmarkOTPWeightedSumParallel8(b *testing.B) { benchOTPWeightedSum(b, 8) }

// BenchmarkQueryCtxParallel8 runs the whole verified protocol with eight
// workers: the fixture's walk reaches the planner's threshold, so the
// query is planned and its pad sweep spread over the workers; compare
// against BenchmarkQueryVerified, the same engine with one worker.
func BenchmarkQueryCtxParallel8(b *testing.B) {
	_, mem, tab, _ := benchTable(b, memory.TagSep, benchParRows, benchParCols, 32)
	ndp := &core.HonestNDP{Mem: mem}
	rng := rand.New(rand.NewSource(43))
	idx := make([]int, benchParBatch)
	w := make([]uint64, benchParBatch)
	for k := range idx {
		idx[k] = rng.Intn(benchParRows)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	ctx := context.Background()
	opts := core.QueryOptions{Workers: 8, Verify: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.QueryCtx(ctx, ndp, idx, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeQuery exercises the public entry point end to end: one
// verified 80-row query on a 1 024 × 32 LocalBackend table.
func BenchmarkFacadeQuery(b *testing.B) {
	benchFacadeQuery(b, func(*testing.B) Backend { return LocalBackend(NewMemory()) })
}

// BenchmarkFacadeQueryRemote is BenchmarkFacadeQuery over one loopback
// server.
func BenchmarkFacadeQueryRemote(b *testing.B) {
	benchFacadeQuery(b, func(b *testing.B) Backend {
		client, err := DialNDP(context.Background(), benchServer(b))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { client.Close() })
		return RemoteBackend(client)
	})
}

// BenchmarkFacadeQueryRemoteParallel is BenchmarkFacadeQueryRemote from
// four callers at once on the one table and its one bare client, each
// query on its own random rows.
func BenchmarkFacadeQueryRemoteParallel(b *testing.B) {
	eng, err := New(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	client, err := DialNDP(context.Background(), benchServer(b))
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(45))
	rows := testRows(rng, 1024, 32, 1<<16)
	tab, err := eng.CreateTable(context.Background(), RemoteBackend(client), TableSpec{Rows: 1024, Cols: 32}, rows)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	var seed atomic.Int64
	b.SetParallelism(2)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		req := Request{Idx: make([]int, 80), Weights: make([]uint64, 80)}
		for pb.Next() {
			for k := range req.Idx {
				req.Idx[k], req.Weights[k] = rng.Intn(1024), 1+uint64(rng.Intn(4))
			}
			if res, err := tab.Query(context.Background(), req); err != nil || !res.Verified {
				b.Errorf("query: verified=%v err=%v", res.Verified, err)
				return
			}
		}
	})
}

// BenchmarkFacadeQueryCluster is BenchmarkFacadeQuery over two loopback
// shards.
func BenchmarkFacadeQueryCluster(b *testing.B) {
	benchFacadeQuery(b, func(b *testing.B) Backend {
		return ClusterBackend(ShardSpec{Addr: benchServer(b)}, ShardSpec{Addr: benchServer(b)})
	})
}

// benchServer starts a loopback NDP server for the benchmark's lifetime.
func benchServer(b *testing.B) string {
	srv := NewServer(NewMemory())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return addr
}

// benchFacadeQuery runs one verified 80-row Table.Query per op on a
// 1 024 × 32 table over the backend mk returns.
func benchFacadeQuery(b *testing.B, mk func(*testing.B) Backend) {
	eng, err := New(benchKey, WithParallelism(8))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	rows := make([][]uint64, 1024)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 16)
		}
	}
	tab, err := eng.CreateTable(context.Background(), mk(b), TableSpec{Rows: 1024, Cols: 32}, rows)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	idx := make([]int, 80)
	w := make([]uint64, 80)
	for k := range idx {
		idx[k] = rng.Intn(1024)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	req := Request{Idx: idx, Weights: w}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := tab.Query(ctx, req); err != nil || !res.Verified {
			b.Fatalf("query: verified=%v err=%v", res.Verified, err)
		}
	}
}

// BenchmarkFacadeQueryBatchUnitLocal runs one verified QueryBatch of 8
// unit-row requests per op on a 16 384 × 32 LocalBackend TagsSeparate
// table: the shape of a serving drain and of serve_rotate's protection op,
// short enough that the batch walk runs its exchange on the caller.
func BenchmarkFacadeQueryBatchUnitLocal(b *testing.B) { benchFacadeQueryBatchUnit(b, false) }

// BenchmarkFacadeQueryBatchUnitLocalUnverified is the same batch without
// the MAC check.
func BenchmarkFacadeQueryBatchUnitLocalUnverified(b *testing.B) { benchFacadeQueryBatchUnit(b, true) }

func benchFacadeQueryBatchUnit(b *testing.B, unverified bool) {
	const rows, cols = 16384, 32
	eng, err := New(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	data := make([][]uint64, rows)
	for i := range data {
		data[i] = make([]uint64, cols)
		for j := range data[i] {
			data[i][j] = rng.Uint64() % (1 << 16)
		}
	}
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()),
		TableSpec{Rows: rows, Cols: cols, ElemBits: 32, Tags: TagsSeparate}, data)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Idx: []int{rng.Intn(rows)}, Weights: []uint64{1}, Unverified: unverified}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := tab.QueryBatch(ctx, reqs)
		if err != nil || out[0].Verified == unverified {
			b.Fatalf("batch: verified=%v err=%v", out[0].Verified, err)
		}
	}
}

// benchQueryParallel is the telemetry acceptance fixture: the public
// Query on an 8-worker engine over the reference batch, with or without
// a registry attached. The contract is that the instrumented run stays
// within 2% of the bare one — recording is a handful of atomics per
// query, not per row.
func benchQueryParallel(b *testing.B, opts ...Option) {
	b.Helper()
	eng, err := New(benchKey, append([]Option{WithParallelism(8)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(46))
	rows := make([][]uint64, benchParRows)
	for i := range rows {
		rows[i] = make([]uint64, benchParCols)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 16)
		}
	}
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: benchParRows, Cols: benchParCols}, rows)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	idx := make([]int, benchParBatch)
	w := make([]uint64, benchParBatch)
	for k := range idx {
		idx[k] = rng.Intn(benchParRows)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	req := Request{Idx: idx, Weights: w}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParallel is the bare engine: telemetry disabled, every
// record site one nil check.
func BenchmarkQueryParallel(b *testing.B) { benchQueryParallel(b) }

// BenchmarkQueryParallelTelemetry runs the same workload with a live
// registry: counters, per-phase histograms, and a span per query.
func BenchmarkQueryParallelTelemetry(b *testing.B) {
	benchQueryParallel(b, WithTelemetry(NewTelemetry()))
}
