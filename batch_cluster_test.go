package secndp

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The batch wire path between cluster and remote partitions a batch into
// shared arenas and decodes shard replies in place. These tests pin its
// allocation budget at the batch_cluster benchmark's shape and its
// correctness under concurrent callers sharing one cluster.

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// RaceEnabled reports raceEnabled to the external test package.
func RaceEnabled() bool { return raceEnabled }

// newBatchCluster provisions a rows×cols 32-bit Ver-sep table over
// numShards loopback servers with the engine's default transport, as the
// benchmark does.
func newBatchCluster(t *testing.T, numShards, rows, cols int, seed int64) (*Table, [][]uint64) {
	t.Helper()
	specs := make([]ShardSpec, numShards)
	for i := range specs {
		srv := NewServer(NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		specs[i] = ShardSpec{Addr: addr}
	}
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	data := testRows(rand.New(rand.NewSource(seed)), rows, cols, 1<<20)
	tab, err := eng.CreateTable(context.Background(), ClusterBackend(specs...),
		TableSpec{Rows: rows, Cols: cols, ElemBits: 32, Tags: TagsSeparate}, data)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return tab, data
}

func uniformBatch(rng *rand.Rand, bags, bagRows, rows int) []Request {
	reqs := make([]Request, bags)
	for i := range reqs {
		idx := make([]int, bagRows)
		w := make([]uint64, bagRows)
		for k := range idx {
			idx[k] = rng.Intn(rows)
			w[k] = 1 + uint64(rng.Intn(8))
		}
		reqs[i] = Request{Idx: idx, Weights: w}
	}
	return reqs
}

// TestBatchClusterAllocBudget: one verified 64×8 batch over 4 shards of a
// 16 384 × 64 table — the batch_cluster op — counting every allocation in
// the process, servers included, and the bytes they request. Before the
// arena split and in-place decode it read 1 281 allocations; before packed
// replies and the servers' per-connection result buffers, 116 allocations
// and ~438 KB (about 100 and ~288 KB after); before the cluster merge and
// the core join kept the NDP's sum vectors and the batch pad walk staged
// packed bytes, 94 and ~274 KB (94 and ~188 KB after); before the
// caller-driven scatter — no goroutine per shard, replies parsed into
// reused connection buffers and folded into one batch slab — 93 and
// ~188 KB (59 and ~84 KB after); before the batch walk and the facade
// took their per-request scratch from pools, 58 and ~84 KB (42 and
// ~69 KB after); before the fill flags and the query's exchange part
// came from pools and a wire call stopped allocating its cancellation
// guard for a context that cannot end, 42 (14 after); before each
// server's gather kept its memory view on the stack, 14 (10 after). A
// single verified 80-row Table.Query on the same fixture read 66
// allocations while it made two round trips per shard from a goroutine
// per shard, 44 as a batch of one with its exchange on a goroutine, 14
// split at the wire on the caller's goroutine, and 12 once the servers'
// views stayed on the stack.
func TestBatchClusterAllocBudget(t *testing.T) {
	const rows, budget, bytesBudget, queryBudget = 16384, 10, 120 << 10, 12
	tab, _ := newBatchCluster(t, 4, rows, 64, 250)
	rng := rand.New(rand.NewSource(251))
	reqs := uniformBatch(rng, 64, 8, rows)
	ctx := context.Background()
	batch := func() {
		out, err := tab.QueryBatch(ctx, reqs)
		if err != nil || !out[0].Verified {
			t.Fatalf("batch failed: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, batch)
	bytes := bytesPerRun(20, batch)
	t.Logf("%.0f allocs, %.0f bytes per 64×8 batch", allocs, bytes)
	req := uniformBatch(rng, 1, 80, rows)[0]
	qallocs := testing.AllocsPerRun(20, func() {
		if res, err := tab.Query(ctx, req); err != nil || !res.Verified {
			t.Fatalf("query failed: %v", err)
		}
	})
	t.Logf("%.0f allocs per verified 80-row query", qallocs)
	if raceEnabled {
		return // correctness only: see race_test.go
	}
	if allocs > budget {
		t.Fatalf("%.0f allocs per 64×8 batch over 4 shards, budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Fatalf("%.0f bytes allocated per 64×8 batch over 4 shards, budget %d", bytes, bytesBudget)
	}
	if qallocs > queryBudget {
		t.Fatalf("%.0f allocs per verified 80-row query over 4 shards, budget %d", qallocs, queryBudget)
	}
}

// TestBatchLocalAllocBudget: a verified LocalBackend QueryBatch of 8
// unit requests — the shape of a serving drain — heap-allocates only
// what it returns: the results, the NDP's sums slab and the core
// results. Every per-request working slice of the walk, the NDP and the
// facade is pooled, and a walk this short runs its exchange on the
// caller, the in-process NDP answering into the walk's own buffer. It
// read 27 allocations before the pooling, 6 while the exchange still ran
// on a goroutine of its own, 5 while the NDP's result vector was
// allocated per exchange, and 4 while the NDP's memory view was.
func TestBatchLocalAllocBudget(t *testing.T) {
	const rows, cols, budget = 64, 16, 3
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(253))
	data := make([][]uint64, rows)
	for i := range data {
		data[i] = make([]uint64, cols)
		for j := range data[i] {
			data[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: rows, Cols: cols}, data)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tab.Close)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Idx: []int{3 + 7*i}, Weights: []uint64{1}}
	}
	ctx := context.Background()
	batch := func() {
		out, err := tab.QueryBatch(ctx, reqs)
		if err != nil || !out[7].Verified || out[7].Values[0] != data[52][0] {
			t.Fatalf("batch failed: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, batch)
	t.Logf("%.1f allocs per 8-request local batch", allocs)
	if raceEnabled {
		return // correctness only: see race_test.go
	}
	if allocs > budget {
		t.Fatalf("%.1f allocs per 8-request local batch, budget %d", allocs, budget)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes the
// whole process allocates per call of f, after one warm-up call, with
// GOMAXPROCS at 1 as AllocsPerRun sets it.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestBatchClusterConcurrentCallers: 8 goroutines share one 4-shard
// cluster; their batches mix a zero-row request, a request wholly on one
// shard and duplicate rows within a request. Every answer must equal the
// plaintext oracle and be verified. Run under -race by make batch-check.
func TestBatchClusterConcurrentCallers(t *testing.T) {
	const rows, cols, callers, rounds = 256, 16, 8, 6
	tab, data := newBatchCluster(t, 4, rows, cols, 252)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(260 + c)))
			for round := 0; round < rounds; round++ {
				reqs := uniformBatch(rng, 12, 1+rng.Intn(8), rows)
				reqs[0] = Request{} // zero rows: the empty sum
				// Range sharding puts rows [64,128) on shard 1 alone.
				reqs[1] = Request{Idx: []int{64, 100, 127}, Weights: []uint64{3, 1, 4}}
				r := rng.Intn(rows)
				reqs[2] = Request{Idx: []int{r, 7, r, r}, Weights: []uint64{1, 2, 3, 5}}
				out, err := tab.QueryBatch(context.Background(), reqs)
				if err != nil {
					errs <- err
					return
				}
				for i := range reqs {
					want := plainSum(data, reqs[i].Idx, reqs[i].Weights, cols, 0xFFFFFFFF)
					if !out[i].Verified {
						t.Errorf("caller %d round %d request %d: not verified", c, round, i)
					}
					for j := range want {
						if out[i].Values[j] != want[j] {
							t.Errorf("caller %d round %d request %d col %d: %d != %d", c, round, i, j, out[i].Values[j], want[j])
							break
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
