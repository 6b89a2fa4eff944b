package secndp

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"secndp/internal/remote/faultproxy"
)

// The cluster suite drives the sharded backend end to end over real
// loopback TCP servers: provisioning ships each shard its rows, queries
// scatter-gather, and the oracle is the plaintext weighted sum — the
// per-shard partials must re-add to exactly the single-NDP answer.

// clusterHarness is one sharded deployment: N servers (each with its own
// untrusted memory), optional chaos proxies in front of chosen shards,
// and a cluster-provisioned table.
type clusterHarness struct {
	mems    []*Memory
	srvs    []*Server
	proxies map[int]*faultproxy.Proxy
	eng     *Engine
	tab     *Table
	rows    [][]uint64
}

// newClusterHarness stands up numShards servers and provisions a
// 64x16 table across them. proxied lists shard indices to put behind a
// chaos proxy (reachable as h.proxies[i]).
func newClusterHarness(t *testing.T, numShards int, seed int64, proxied []int, opts ...Option) *clusterHarness {
	t.Helper()
	h := &clusterHarness{proxies: map[int]*faultproxy.Proxy{}}
	wantProxy := map[int]bool{}
	for _, i := range proxied {
		wantProxy[i] = true
	}
	specs := make([]ShardSpec, numShards)
	for i := 0; i < numShards; i++ {
		mem := NewMemory()
		srv := NewServer(mem)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		h.mems = append(h.mems, mem)
		h.srvs = append(h.srvs, srv)
		if wantProxy[i] {
			proxy := faultproxy.New(addr, nil)
			paddr, err := proxy.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { proxy.Close() })
			h.proxies[i] = proxy
			addr = paddr
		}
		specs[i] = ShardSpec{Addr: addr}
	}
	opts = append([]Option{WithTransport(fastTransport())}, opts...)
	eng, err := New(testKey, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	rng := rand.New(rand.NewSource(seed))
	h.rows = testRows(rng, 64, 16, 1<<20)
	h.tab, err = eng.CreateTable(context.Background(), ClusterBackend(specs...),
		TableSpec{Rows: 64, Cols: 16}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.tab.Close() })
	return h
}

func (h *clusterHarness) checkValues(t *testing.T, res Result, idx []int, w []uint64) {
	t.Helper()
	want := plainSum(h.rows, idx, w, 16, 0xFFFFFFFF)
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("col %d: %d != %d (degraded=%v)", j, res.Values[j], want[j], res.Degraded)
		}
	}
}

// TestClusterEquivalence is the facade-level oracle: across 1/2/4/8
// shards and both strategies, verified and unverified queries through the
// cluster return exactly the plaintext weighted sums, undegraded.
func TestClusterEquivalence(t *testing.T) {
	for _, strat := range []ShardingStrategy{ShardByRange, ShardByHash} {
		for _, numShards := range []int{1, 2, 4, 8} {
			h := &clusterHarness{proxies: map[int]*faultproxy.Proxy{}}
			specs := make([]ShardSpec, numShards)
			for i := range specs {
				mem := NewMemory()
				srv := NewServer(mem)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				specs[i] = ShardSpec{Addr: addr}
			}
			eng, err := New(testKey, WithTransport(fastTransport()))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(120 + numShards)))
			h.rows = testRows(rng, 64, 16, 1<<20)
			h.tab, err = eng.CreateTable(context.Background(),
				ClusterBackend(specs...).Sharding(strat),
				TableSpec{Rows: 64, Cols: 16}, h.rows)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { h.tab.Close() })
			for q := 0; q < 6; q++ {
				n := 1 + rng.Intn(12)
				idx := make([]int, n)
				w := make([]uint64, n)
				for k := range idx {
					idx[k] = rng.Intn(64)
					w[k] = 1 + rng.Uint64()%8
				}
				for _, unverified := range []bool{false, true} {
					res, err := h.tab.Query(context.Background(),
						Request{Idx: idx, Weights: w, Unverified: unverified})
					if err != nil {
						t.Fatalf("%d shards (%v) unverified=%v: %v", numShards, strat, unverified, err)
					}
					h.checkValues(t, res, idx, w)
					if res.Verified == unverified {
						t.Fatalf("%d shards: Verified=%v with unverified=%v", numShards, res.Verified, unverified)
					}
					if res.Degraded {
						t.Fatalf("%d shards: healthy cluster degraded", numShards)
					}
				}
			}
		}
	}
}

// TestClusterBatch runs the coalesced batch pipeline over a 4-shard
// cluster and checks every request against the plaintext oracle.
func TestClusterBatch(t *testing.T) {
	h := newClusterHarness(t, 4, 130, nil)
	rng := rand.New(rand.NewSource(131))
	reqs := make([]Request, 24)
	for i := range reqs {
		n := 1 + rng.Intn(8)
		idx := make([]int, n)
		w := make([]uint64, n)
		for k := range idx {
			idx[k] = rng.Intn(64)
			w[k] = 1 + rng.Uint64()%8
		}
		reqs[i] = Request{Idx: idx, Weights: w}
	}
	out, err := h.tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		h.checkValues(t, out[i], reqs[i].Idx, reqs[i].Weights)
		if !out[i].Verified {
			t.Fatalf("request %d not verified", i)
		}
		if out[i].Degraded {
			t.Fatalf("request %d degraded on a healthy cluster", i)
		}
	}
}

// deadShard drops every connection on accept: the shard is unreachable
// for good, the way a crashed server behind a live address is.
type deadShard struct{}

func (deadShard) PlanFor(int) faultproxy.Plan { return faultproxy.Plan{DropOnAccept: true} }

// TestClusterShardFailureDegrades kills one shard mid-run: with the TEE
// mirror armed (WithFallback), queries and batches keep returning exactly
// correct values, marked Degraded, and telemetry counts the fills.
func TestClusterShardFailureDegrades(t *testing.T) {
	h := newClusterHarness(t, 4, 140, []int{2}, WithFallback(1), WithTelemetry(NewTelemetry()))
	// Healthy first: the proxy passes traffic through.
	res, err := h.tab.Query(context.Background(), Request{Idx: []int{0, 33, 63}, Weights: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	h.checkValues(t, res, []int{0, 33, 63}, []uint64{1, 2, 3})
	if res.Degraded {
		t.Fatal("healthy cluster degraded")
	}

	// Shard 2 (rows 32..47 under range sharding) dies mid-run.
	h.proxies[2].SetSchedule(deadShard{})
	h.proxies[2].BreakConns()

	// Single query touching the dead shard: correct, Degraded, Verified —
	// the aggregated check ran over the mirror-filled gather.
	idx, w := []int{0, 33, 63}, []uint64{1, 2, 3}
	res, err = h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
	if err != nil {
		t.Fatalf("query with dead shard: %v", err)
	}
	h.checkValues(t, res, idx, w)
	if !res.Degraded {
		t.Fatal("mirror-filled query not marked Degraded")
	}
	if !res.Verified {
		t.Fatal("mirror-filled query lost verification")
	}

	// A query that avoids the dead shard entirely stays clean.
	res, err = h.tab.Query(context.Background(), Request{Idx: []int{1, 60}, Weights: []uint64{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	h.checkValues(t, res, []int{1, 60}, []uint64{4, 5})
	if res.Degraded {
		t.Fatal("query avoiding the dead shard degraded")
	}

	// Batch spanning all shards: every request correct; exactly the ones
	// touching shard 2 are Degraded.
	reqs := []Request{
		{Idx: []int{1, 17}, Weights: []uint64{1, 2}},  // shards 0,1
		{Idx: []int{34, 40}, Weights: []uint64{3, 4}}, // shard 2: filled
		{Idx: []int{50, 63}, Weights: []uint64{5, 6}}, // shard 3
		{Idx: []int{5, 36}, Weights: []uint64{7, 8}},  // shards 0,2: filled
	}
	out, err := h.tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch with dead shard: %v", err)
	}
	wantDegraded := []bool{false, true, false, true}
	for i := range reqs {
		h.checkValues(t, out[i], reqs[i].Idx, reqs[i].Weights)
		if out[i].Degraded != wantDegraded[i] {
			t.Fatalf("request %d: Degraded=%v, want %v", i, out[i].Degraded, wantDegraded[i])
		}
	}
	if h.tab.DegradedCount() == 0 {
		t.Fatal("DegradedCount did not move")
	}
	assertCounter(t, h.eng.Telemetry(), "secndp_cluster_mirror_fills_total", 1)
}

// TestClusterShardFailureWithoutMirrorFails: no WithFallback, no mirror —
// a dead shard is a hard, shard-named error, never a wrong answer.
func TestClusterShardFailureWithoutMirrorFails(t *testing.T) {
	h := newClusterHarness(t, 4, 150, []int{1})
	h.proxies[1].SetSchedule(deadShard{})
	h.proxies[1].BreakConns()
	_, err := h.tab.Query(context.Background(), Request{Idx: []int{20}, Weights: []uint64{1}})
	if err == nil {
		t.Fatal("query through a dead, mirrorless shard succeeded")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error does not name the dead shard: %v", err)
	}
}

// TestClusterElementQuery: element-indexed requests have no wire op, but
// the cluster serves them over the wire anyway — whole-row fetches
// assembled on the trusted side — so a healthy cluster answers exactly
// and un-Degraded, with or without a mirror armed.
func TestClusterElementQuery(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithFallback(3)}} {
		h := newClusterHarness(t, 2, 160, nil, opts...)
		res, err := h.tab.Query(context.Background(),
			Request{Idx: []int{2, 40}, Cols: []int{3, 15}, Weights: []uint64{5, 1}})
		if err != nil {
			t.Fatalf("element query over cluster: %v", err)
		}
		want := (5*h.rows[2][3] + h.rows[40][15]) & 0xFFFFFFFF
		if res.Values[0] != want {
			t.Fatalf("element value %d != %d", res.Values[0], want)
		}
		if res.Degraded {
			t.Error("wire-served element query on a healthy cluster marked degraded")
		}
	}
}

// TestClusterElementQueryFailover: an element query whose preferred
// replica is dead retries the sibling replica — not the mirror — so the
// result stays un-Degraded even with fallback armed.
func TestClusterElementQueryFailover(t *testing.T) {
	h := newReplicatedHarness(t, 2, 2, 165, []int{replicaSlot(0, 0, 2)}, WithFallback(1))
	h.proxies[replicaSlot(0, 0, 2)].SetSchedule(deadShard{})
	h.proxies[replicaSlot(0, 0, 2)].BreakConns()
	res, err := h.tab.Query(context.Background(),
		Request{Idx: []int{2, 40}, Cols: []int{3, 15}, Weights: []uint64{5, 1}})
	if err != nil {
		t.Fatalf("element query with dead replica: %v", err)
	}
	want := (5*h.rows[2][3] + h.rows[40][15]) & 0xFFFFFFFF
	if res.Values[0] != want {
		t.Fatalf("element value %d != %d", res.Values[0], want)
	}
	if res.Degraded {
		t.Error("element query failed over to the mirror instead of the sibling replica")
	}
}

// TestClusterTamperedShardIsLocalized: a shard that lies fails the
// aggregated check, and the error names the culprit shard.
func TestClusterTamperedShardIsLocalized(t *testing.T) {
	h := newClusterHarness(t, 4, 170, nil)
	// Corrupt shard 1's slice of the table (rows 16..31 under range
	// sharding) in its own memory.
	h.mems[1].FlipBit(h.tab.Geometry().Layout.RowAddr(20)+1, 2)
	_, err := h.tab.Query(context.Background(),
		Request{Idx: []int{0, 20, 50}, Weights: []uint64{1, 2, 3}})
	if err == nil {
		t.Fatal("tampered cluster query passed verification")
	}
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("tampered cluster query: %v, want ErrVerification", err)
	}
	if !strings.Contains(err.Error(), "shard(s) [1]") {
		t.Fatalf("error does not localize the tampered shard: %v", err)
	}
}

// TestClusterCallerOwnedTransport: a ShardSpec.Transport is used as-is
// and survives Table.Close (the caller keeps ownership).
func TestClusterCallerOwnedTransport(t *testing.T) {
	mem := NewMemory()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := DialReliableNDP(context.Background(), addr, fastTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(190))
	rows := testRows(rng, 8, 16, 1<<20)
	tab, err := eng.CreateTable(context.Background(),
		ClusterBackend(ShardSpec{Transport: rc}), TableSpec{Rows: 8, Cols: 16}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tab.Query(context.Background(), Request{Idx: []int{3}, Weights: []uint64{2}})
	if err != nil {
		t.Fatal(err)
	}
	want := plainSum(rows, []int{3}, []uint64{2}, 16, 0xFFFFFFFF)
	if res.Values[0] != want[0] {
		t.Fatalf("caller-owned transport: %d != %d", res.Values[0], want[0])
	}
	tab.Close()
	// The transport must still be usable: Close must not have closed it.
	if err := rc.PingContext(context.Background()); err != nil {
		t.Fatalf("Table.Close closed a caller-owned transport: %v", err)
	}
}

func assertCounter(t *testing.T, reg *Telemetry, name string, min uint64) {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			if c.Value < min {
				t.Fatalf("%s = %d, want >= %d", name, c.Value, min)
			}
			return
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
}

// TestClusterBatchDeadShardFailsOnlyItsRequests: no WithFallback, one of
// two single-replica shards closed. A batch request whose rows all live
// on the live shard still answers exactly and Verified; one with a row on
// the dead shard fails with the transport's error, naming the shard, and
// is not Verified.
func TestClusterBatchDeadShardFailsOnlyItsRequests(t *testing.T) {
	h := newClusterHarness(t, 2, 160, nil)
	h.srvs[1].Close() // shard 1: rows 32..63 under range sharding
	reqs := []Request{
		{Idx: []int{1, 17, 30}, Weights: []uint64{1, 2, 3}}, // shard 0 only
		{Idx: []int{5, 40}, Weights: []uint64{4, 5}},        // shards 0 and 1
		{Idx: []int{33}, Weights: []uint64{6}},              // shard 1 only
		{Idx: []int{31, 0}, Weights: []uint64{7, 8}},        // shard 0 only
	}
	out, err := h.tab.QueryBatch(context.Background(), reqs)
	if err == nil {
		t.Fatal("batch through a dead, mirrorless shard succeeded")
	}
	for _, i := range []int{0, 3} {
		if !out[i].Verified || out[i].Degraded {
			t.Fatalf("request %d on the live shard: Verified=%v Degraded=%v (batch error: %v)", i, out[i].Verified, out[i].Degraded, err)
		}
		h.checkValues(t, out[i], reqs[i].Idx, reqs[i].Weights)
	}
	for _, i := range []int{1, 2} {
		if out[i].Verified || out[i].Values != nil {
			t.Fatalf("request %d on the dead shard: Verified=%v Values=%v", i, out[i].Verified, out[i].Values)
		}
	}
	if !errors.Is(err, ErrRetriesExhausted) && !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("batch error is not the transport's: %v", err)
	}
	for _, frag := range []string{"request 1", "request 2", "shard 1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("batch error lacks %q: %v", frag, err)
		}
	}
	if strings.Contains(err.Error(), "request 0") || strings.Contains(err.Error(), "request 3") {
		t.Errorf("batch error names a request on the live shard: %v", err)
	}
}
