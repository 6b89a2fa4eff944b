package secndp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"secndp/internal/core"
	"secndp/internal/remote/faultproxy"
)

// A RemoteBackend table is ClusterBackend's one-shard case: these tests
// pin that it behaves as one, that a single query on any off-process
// table runs on the caller's goroutine, and that rotating a remote table
// keeps its TEE mirror in step with the NDP's memory.

// TestRemoteTableIsOneShardCluster: a table over one bare connection
// shares exchanges like a cluster table, answers a query, a joint batch
// beside a 2-shard cluster table and an element query from the NDP,
// names its one shard when a tampered row fails verification, and
// refuses an in-place rotation over the wire and — holding no in-TEE copy
// of its ciphertext without WithFallback — a reshard.
func TestRemoteTableIsOneShardCluster(t *testing.T) {
	mem := NewMemory()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialNDP(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	specs, _ := testServers(t, 2)
	eng, err := New(testKey, WithTransport(fastTransport()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows := testRows(rand.New(rand.NewSource(410)), 32, 16, 1<<20)
	spec := TableSpec{Rows: 32, Cols: 16}
	rtab, err := eng.CreateTable(ctx, RemoteBackend(client), spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer rtab.Close()
	ctab, err := eng.CreateTable(ctx, ClusterBackend(specs...), spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer ctab.Close()
	if !rtab.SharesExchanges() || rtab.Epoch() != 1 {
		t.Fatalf("remote table: SharesExchanges %v, epoch %d; want true, 1", rtab.SharesExchanges(), rtab.Epoch())
	}

	req := Request{Idx: []int{3, 17, 30}, Weights: []uint64{2, 5, 1}}
	want := plainSum(rows, req.Idx, req.Weights, 16, 0xFFFFFFFF)
	check := func(what string, res Result) {
		t.Helper()
		if !res.Verified || res.Degraded || !slices.Equal(res.Values, want) {
			t.Fatalf("%s: verified=%v degraded=%v values %v, want %v", what, res.Verified, res.Degraded, res.Values, want)
		}
	}
	res, err := rtab.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	check("query", res)
	batches := []TableBatch{{Table: rtab, Reqs: []Request{req, req}}, {Table: ctab, Reqs: []Request{req}}}
	QueryBatches(ctx, batches)
	for _, b := range batches {
		if b.Err != nil {
			t.Fatal(b.Err)
		}
		for _, r := range b.Results {
			check("joint batch", r)
		}
	}
	elem, err := rtab.Query(ctx, Request{Idx: []int{4, 9}, Cols: []int{0, 15}, Weights: []uint64{3, 1}})
	if wantElem := (3*rows[4][0] + rows[9][15]) & 0xFFFFFFFF; err != nil || elem.Degraded || elem.Values[0] != wantElem {
		t.Fatalf("element query = %+v, %v; want %d from the NDP", elem, err, wantElem)
	}

	mem.FlipBit(rtab.Geometry().Layout.RowAddr(17)+1, 2)
	if _, err := rtab.Query(ctx, req); !errors.Is(err, ErrVerification) || !strings.Contains(err.Error(), "cluster shard(s) [0]") {
		t.Fatalf("tampered query = %v, want ErrVerification naming shard 0", err)
	}
	if err := rtab.Reencrypt(ctx, nil); err == nil {
		t.Fatal("Reencrypt over the wire accepted")
	}
	if err := rtab.Reshard(ctx, ClusterBackend(specs...)); err == nil {
		t.Fatal("Reshard without a staging image accepted")
	}
}

// callerGate is an in-process transport that records the goroutine each
// of its batches is answered on.
type callerGate struct {
	*faultproxy.Gate
	mu  sync.Mutex
	ids []string
}

func (g *callerGate) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	g.mu.Lock()
	g.ids = append(g.ids, goroutineID())
	g.mu.Unlock()
	return g.Gate.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestRemoteTableConcurrentCallers: four goroutines share one remote
// table and its one bare client, each mixing single queries — whose
// exchange holds the client across the caller's pad sweep — with joint
// batches. Every answer must equal the plaintext oracle and be verified.
// Run under -race by make batch-check.
func TestRemoteTableConcurrentCallers(t *testing.T) {
	srv := NewServer(NewMemory())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialNDP(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 64, 16
	data := testRows(rand.New(rand.NewSource(413)), rows, cols, 1<<20)
	tab, err := eng.CreateTable(context.Background(), RemoteBackend(client), TableSpec{Rows: rows, Cols: cols}, data)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	check := func(req Request, res Result) error {
		if !res.Verified || !slices.Equal(res.Values, plainSum(data, req.Idx, req.Weights, cols, 0xFFFFFFFF)) {
			return errors.New("answer differs from the oracle or is unverified")
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(414 + c)))
			for round := 0; round < 20; round++ {
				reqs := uniformBatch(rng, 1+rng.Intn(4), 1+rng.Intn(8), rows)
				var out []Result
				var err error
				if round%2 == 0 {
					var res Result
					res, err = tab.Query(context.Background(), reqs[0])
					out, reqs = []Result{res}, reqs[:1]
				} else {
					out, err = tab.QueryBatch(context.Background(), reqs)
				}
				for i := range out {
					if err == nil {
						err = check(reqs[i], out[i])
					}
				}
				if err != nil {
					errs <- err
					return
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

// TestQueryStartsNoGoroutine: one verified Query on a remote table, and
// on a one-shard cluster table, reaches its NDP on the caller's goroutine
// — the exchange is split around the pad sweep, not handed to a
// goroutine. A 2-shard table's query still hands its exchange off (see
// cluster.NDP.StartBatch), so its shards answer on another goroutine.
func TestQueryStartsNoGoroutine(t *testing.T) {
	eng, err := New(testKey, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(rand.New(rand.NewSource(411)), 64, 16, 1<<20)
	gates := make([]*callerGate, 4)
	for i := range gates {
		gates[i] = &callerGate{Gate: faultproxy.NewGate(NewMemory())}
	}
	backends := []Backend{
		RemoteBackend(gates[0]),
		ClusterBackend(ShardSpec{Transport: gates[1]}),
		ClusterBackend(ShardSpec{Transport: gates[2]}, ShardSpec{Transport: gates[3]}),
	}
	onCaller := []bool{true, true, false, false}
	req := Request{Idx: []int{1, 40, 63, 20}, Weights: []uint64{1, 2, 3, 4}}
	want := plainSum(rows, req.Idx, req.Weights, 16, 0xFFFFFFFF)
	for i, b := range backends {
		tab, err := eng.CreateTable(context.Background(), b, TableSpec{Rows: 64, Cols: 16}, rows)
		if err != nil {
			t.Fatal(err)
		}
		defer tab.Close()
		res, err := tab.Query(context.Background(), req)
		if err != nil || !res.Verified || !slices.Equal(res.Values, want) {
			t.Fatalf("backend %d: query = %+v, %v", i, res, err)
		}
	}
	me := goroutineID()
	for i, g := range gates {
		if len(g.ids) != 1 {
			t.Fatalf("gate %d answered %d batches, want 1", i, len(g.ids))
		}
		if (g.ids[0] == me) != onCaller[i] {
			t.Fatalf("gate %d answered on goroutine %s, the caller is %s; want on the caller: %v", i, g.ids[0], me, onCaller[i])
		}
	}
}

// failGate is an in-process transport whose batches fail while down is
// set — a server gone away, without a socket.
type failGate struct {
	*faultproxy.Gate
	down atomic.Bool
}

func (g *failGate) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	if g.down.Load() {
		return nil, errors.New("ndp down")
	}
	return g.Gate.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// TestReencryptRewritesMirror: after a remote table rotates in place —
// new contents, or its own re-encrypted — both ways the TEE mirror
// answers (the whole query once the NDP fails verification, the shard's
// fill once the NDP is down) return the rotated table's sums. A mirror
// left on the old ciphertext would decrypt it with the new version's
// pads.
func TestReencryptRewritesMirror(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(412))
	old, fresh := testRows(rng, 32, 16, 1<<20), testRows(rng, 32, 16, 1<<20)
	req := Request{Idx: []int{0, 5, 31}, Weights: []uint64{1, 4, 9}}
	for _, newRows := range [][][]uint64{fresh, nil} {
		want := plainSum(old, req.Idx, req.Weights, 16, 0xFFFFFFFF)
		if newRows != nil {
			want = plainSum(newRows, req.Idx, req.Weights, 16, 0xFFFFFFFF)
		}
		for _, fault := range []string{"tamper", "down"} {
			eng, err := New(testKey, WithFallback(1))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory()
			g := &failGate{Gate: faultproxy.NewGate(mem)}
			tab, err := eng.CreateTable(ctx, RemoteBackend(g), TableSpec{Rows: 32, Cols: 16}, old)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.Reencrypt(ctx, newRows); err != nil {
				t.Fatal(err)
			}
			if fault == "tamper" {
				mem.FlipBit(tab.Geometry().Layout.RowAddr(5)+3, 1)
			} else {
				g.down.Store(true)
			}
			res, err := tab.Query(ctx, req)
			if err != nil || !res.Degraded || !slices.Equal(res.Values, want) {
				t.Fatalf("new contents %v, %s: query = %+v, %v; want degraded %v", newRows != nil, fault, res, err, want)
			}
			tab.Close()
		}
	}
}
