package secndp

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"secndp/internal/remote/faultproxy"
)

// The replication suite drives replica groups and live resharding end to
// end over loopback TCP: R servers per shard provisioned with identical
// ciphertext+tags, chaos proxies killing chosen replicas, and the
// plaintext weighted sum as the oracle throughout.

// replicaSlot maps (shard, replica) to its index in the shard-major spec
// list handed to ClusterBackend(...).Replicas(R).
func replicaSlot(shard, replica, numReplicas int) int { return shard*numReplicas + replica }

// newReplicatedHarness stands up numShards*numReplicas servers
// (shard-major) and provisions a 64x16 table across them with
// Replicas(numReplicas). proxied lists spec-slot indices (replicaSlot)
// to put behind a chaos proxy.
func newReplicatedHarness(t *testing.T, numShards, numReplicas int, seed int64, proxied []int, opts ...Option) *clusterHarness {
	t.Helper()
	h := &clusterHarness{proxies: map[int]*faultproxy.Proxy{}}
	wantProxy := map[int]bool{}
	for _, i := range proxied {
		wantProxy[i] = true
	}
	n := numShards * numReplicas
	specs := make([]ShardSpec, n)
	for i := 0; i < n; i++ {
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
	h.tab, err = eng.CreateTable(context.Background(),
		ClusterBackend(specs...).Replicas(numReplicas),
		TableSpec{Rows: 64, Cols: 16}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.tab.Close() })
	return h
}

// TestReplicatedClusterEquivalence: a healthy replicated cluster answers
// exactly like an unreplicated one — verified, undegraded, oracle-equal —
// across shard counts and both query paths.
func TestReplicatedClusterEquivalence(t *testing.T) {
	for _, numShards := range []int{1, 2, 4} {
		h := newReplicatedHarness(t, numShards, 2, int64(200+numShards), nil)
		rng := rand.New(rand.NewSource(int64(210 + numShards)))
		for q := 0; q < 4; q++ {
			n := 1 + rng.Intn(12)
			idx := make([]int, n)
			w := make([]uint64, n)
			for k := range idx {
				idx[k] = rng.Intn(64)
				w[k] = 1 + rng.Uint64()%8
			}
			res, err := h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
			if err != nil {
				t.Fatalf("%d shards x2 replicas: %v", numShards, err)
			}
			h.checkValues(t, res, idx, w)
			if !res.Verified || res.Degraded {
				t.Fatalf("%d shards x2: Verified=%v Degraded=%v", numShards, res.Verified, res.Degraded)
			}
		}
	}
}

// TestReplicaFailoverNotDegraded is the tentpole chaos test: the
// preferred replica of a shard dies mid-run (connections severed, new
// ones dropped) under a steady query load, and every single result —
// queries and batches, before, during, and after the kill — is correct,
// Verified, and NOT Degraded: the sibling replica absorbs the loss
// before the TEE mirror is ever consulted.
func TestReplicaFailoverNotDegraded(t *testing.T) {
	// Fallback armed with threshold 1 on purpose: if failover ever leaked
	// to the mirror, Degraded would expose it immediately.
	h := newReplicatedHarness(t, 2, 2, 220, []int{replicaSlot(0, 0, 2), replicaSlot(1, 0, 2)},
		WithFallback(1), WithTelemetry(NewTelemetry()))

	type outcome struct {
		res Result
		err error
		idx []int
		w   []uint64
	}
	var mu sync.Mutex
	var outcomes []outcome
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(230 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Intn(6)
				idx := make([]int, n)
				w := make([]uint64, n)
				for k := range idx {
					idx[k] = rng.Intn(64)
					w[k] = 1 + rng.Uint64()%8
				}
				res, err := h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
				mu.Lock()
				outcomes = append(outcomes, outcome{res, err, idx, w})
				mu.Unlock()
			}
		}(g)
	}

	// Let the load establish, then kill shard 0's preferred replica
	// mid-gather, then shard 1's a moment later.
	time.Sleep(20 * time.Millisecond)
	for _, slot := range []int{replicaSlot(0, 0, 2), replicaSlot(1, 0, 2)} {
		h.proxies[slot].SetSchedule(deadShard{})
		h.proxies[slot].BreakConns()
		time.Sleep(30 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(outcomes) == 0 {
		t.Fatal("no queries completed")
	}
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("query %d failed despite a live sibling replica: %v", i, o.err)
		}
		h.checkValues(t, o.res, o.idx, o.w)
		if !o.res.Verified {
			t.Fatalf("query %d lost verification", i)
		}
		if o.res.Degraded {
			t.Fatalf("query %d Degraded: single-replica loss must not reach the mirror", i)
		}
	}
	if h.tab.DegradedCount() != 0 {
		t.Fatalf("DegradedCount = %d, want 0", h.tab.DegradedCount())
	}
	// The failovers are visible in telemetry; mirror fills are not.
	snap := h.eng.Telemetry().Snapshot()
	var failovers, fills uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "secndp_cluster_replica_failovers_total":
			failovers = c.Value
		case "secndp_cluster_mirror_fills_total":
			fills = c.Value
		}
	}
	if failovers == 0 {
		t.Error("no replica failovers counted after killing two preferred replicas")
	}
	if fills != 0 {
		t.Errorf("mirror fills = %d, want 0 (failover must preempt the mirror)", fills)
	}
}

// TestReplicaExhaustionFallsBackToMirror: when EVERY replica of a shard
// is dead the mirror still catches the query — Degraded, correct,
// verified — so replication narrows the mirror's job without removing
// the last resort.
func TestReplicaExhaustionFallsBackToMirror(t *testing.T) {
	h := newReplicatedHarness(t, 2, 2, 240,
		[]int{replicaSlot(0, 0, 2), replicaSlot(0, 1, 2)}, WithFallback(1))
	for _, slot := range []int{replicaSlot(0, 0, 2), replicaSlot(0, 1, 2)} {
		h.proxies[slot].SetSchedule(deadShard{})
		h.proxies[slot].BreakConns()
	}
	idx, w := []int{2, 40}, []uint64{3, 4} // touches shard 0 (rows 0..31) and shard 1
	res, err := h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
	if err != nil {
		t.Fatalf("query with a fully dead shard: %v", err)
	}
	h.checkValues(t, res, idx, w)
	if !res.Degraded {
		t.Fatal("fully dead shard served without the mirror?")
	}
	if !res.Verified {
		t.Fatal("mirror-filled gather lost verification")
	}
}

// testServers stands up n plain loopback servers and returns their specs
// and memories.
func testServers(t *testing.T, n int) ([]ShardSpec, []*Memory) {
	t.Helper()
	specs := make([]ShardSpec, n)
	mems := make([]*Memory, n)
	for i := 0; i < n; i++ {
		mems[i] = NewMemory()
		srv := NewServer(mems[i])
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		specs[i] = ShardSpec{Addr: addr}
	}
	return specs, mems
}

// TestReshardOracle is the tentpole equivalence test: a table resharded
// live 2→4 and back 4→2 — with queries and batches issued concurrently
// throughout — returns answers byte-identical to the pre-reshard table
// at every point, never unverified, never failed. Retained shard
// indices keep their servers, per the documented contract.
func TestReshardOracle(t *testing.T) {
	specs, _ := testServers(t, 4)
	eng, err := New(testKey, WithTransport(fastTransport()), WithTelemetry(NewTelemetry()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(250))
	rows := testRows(rng, 64, 16, 1<<20)
	h := &clusterHarness{eng: eng, rows: rows}
	h.tab, err = eng.CreateTable(context.Background(), ClusterBackend(specs[:2]...),
		TableSpec{Rows: 64, Cols: 16}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.tab.Close() })

	// Concurrent load: queries and batches hammer the table across every
	// reshard transition; each result must be oracle-exact and verified.
	stop := make(chan struct{})
	errc := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(260 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Intn(8)
				idx := make([]int, n)
				w := make([]uint64, n)
				for k := range idx {
					idx[k] = rng.Intn(64)
					w[k] = 1 + rng.Uint64()%8
				}
				res, err := h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
				if err != nil {
					errc <- err
					return
				}
				want := plainSum(rows, idx, w, 16, 0xFFFFFFFF)
				for j := range want {
					if res.Values[j] != want[j] {
						errc <- &reshardMismatch{col: j, got: res.Values[j], want: want[j]}
						return
					}
				}
				if !res.Verified {
					errc <- &reshardMismatch{unverified: true}
					return
				}
			}
		}(g)
	}

	// 2→4, then 4→2, twice over, under load.
	transitions := [][]ShardSpec{specs[:4], specs[:2], specs[:4], specs[:2]}
	for i, target := range transitions {
		time.Sleep(10 * time.Millisecond)
		if err := h.tab.Reshard(context.Background(), ClusterBackend(target...)); err != nil {
			t.Fatalf("reshard transition %d (to %d shards): %v", i, len(target), err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent query during reshard: %v", err)
	}

	// Post-reshard sanity: batches over the final 2-shard layout, and the
	// epoch gauge advanced once per transition.
	reqs := make([]Request, 12)
	rng2 := rand.New(rand.NewSource(270))
	for i := range reqs {
		n := 1 + rng2.Intn(6)
		idx := make([]int, n)
		w := make([]uint64, n)
		for k := range idx {
			idx[k] = rng2.Intn(64)
			w[k] = 1 + rng2.Uint64()%8
		}
		reqs[i] = Request{Idx: idx, Weights: w}
	}
	out, err := h.tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		h.checkValues(t, out[i], reqs[i].Idx, reqs[i].Weights)
		if !out[i].Verified || out[i].Degraded {
			t.Fatalf("post-reshard batch request %d: Verified=%v Degraded=%v", i, out[i].Verified, out[i].Degraded)
		}
	}
	snap := eng.Telemetry().Snapshot()
	for _, g := range snap.Gauges {
		if g.Name == "secndp_cluster_epoch" && g.Value != int64(1+len(transitions)) {
			t.Fatalf("epoch gauge = %d, want %d", g.Value, 1+len(transitions))
		}
	}
}

// TestReshardToReplicated: resharding can also add replication — 2
// unreplicated shards to 2 shards x 2 replicas, where each shard's new
// sibling is a fresh server. Moved rows ship to all replicas; here the
// shard layout is unchanged so nothing moves, and the new siblings are
// reached only after a failure of the retained preferred replica.
func TestReshardToReplicated(t *testing.T) {
	specs, _ := testServers(t, 2)
	eng, err := New(testKey, WithTransport(fastTransport()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(280))
	rows := testRows(rng, 64, 16, 1<<20)
	h := &clusterHarness{eng: eng, rows: rows}
	h.tab, err = eng.CreateTable(context.Background(), ClusterBackend(specs...),
		TableSpec{Rows: 64, Cols: 16}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.tab.Close() })

	// New layout: same 2 shard servers in retained slots, plus a fresh
	// sibling per shard. Hash strategy unchanged (range), so no rows
	// move; the siblings start empty, which is fine while the preferred
	// (retained) replicas serve.
	sib, _ := testServers(t, 2)
	replicated := []ShardSpec{specs[0], sib[0], specs[1], sib[1]}
	if err := h.tab.Reshard(context.Background(), ClusterBackend(replicated...).Replicas(2)); err != nil {
		t.Fatal(err)
	}
	idx, w := []int{3, 40, 63}, []uint64{1, 2, 3}
	res, err := h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	h.checkValues(t, res, idx, w)
	if !res.Verified || res.Degraded {
		t.Fatalf("post-reshard replicated query: Verified=%v Degraded=%v", res.Verified, res.Degraded)
	}
}

// TestReshardValidation: misshapen reshard targets are rejected before
// anything ships or flips.
func TestReshardValidation(t *testing.T) {
	specs, _ := testServers(t, 2)
	eng, err := New(testKey, WithTransport(fastTransport()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(290))
	rows := testRows(rng, 16, 16, 1<<20)

	mem := NewMemory()
	local, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 16, Cols: 16}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if err := local.Reshard(context.Background(), ClusterBackend(specs...)); err == nil {
		t.Fatal("Reshard on a non-cluster table succeeded")
	}

	ctab, err := eng.CreateTable(context.Background(), ClusterBackend(specs...),
		TableSpec{Rows: 16, Cols: 16}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer ctab.Close()
	if err := ctab.Reshard(context.Background(), nil); err == nil {
		t.Fatal("Reshard with a nil backend succeeded")
	}
	if err := ctab.Reshard(context.Background(), ClusterBackend(specs...).Replicas(3)); err == nil {
		t.Fatal("Reshard with a non-dividing replica count succeeded")
	}
}

// reshardMismatch is a structured error for oracle violations inside the
// concurrent load goroutines.
type reshardMismatch struct {
	col        int
	got, want  uint64
	unverified bool
}

func (e *reshardMismatch) Error() string {
	if e.unverified {
		return "concurrent query returned unverified result"
	}
	return "concurrent query mismatch: col " + itoa(e.col) + ": got " + utoa(e.got) + ", want " + utoa(e.want)
}

func itoa(v int) string { return utoa(uint64(v)) }

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestReplicaReadBalanceEquivalence: the read load-balancing policies
// are pure routing — a balanced replicated cluster answers byte-identical
// to a sticky one, verified and undegraded, on both query paths.
func TestReplicaReadBalanceEquivalence(t *testing.T) {
	for _, policy := range []ReplicaBalance{ReplicaRoundRobin, ReplicaLeastInflight} {
		specs, _ := testServers(t, 4)
		eng, err := New(testKey, WithTransport(fastTransport()))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(400 + int64(policy)))
		rows := testRows(rng, 64, 16, 1<<20)
		h := &clusterHarness{eng: eng, rows: rows}
		h.tab, err = eng.CreateTable(context.Background(),
			ClusterBackend(specs...).Replicas(2).ReadBalance(policy),
			TableSpec{Rows: 64, Cols: 16}, rows)
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		tab := h.tab
		for q := 0; q < 6; q++ {
			n := 1 + rng.Intn(10)
			idx := make([]int, n)
			w := make([]uint64, n)
			for k := range idx {
				idx[k] = rng.Intn(64)
				w[k] = 1 + rng.Uint64()%8
			}
			res, err := tab.Query(context.Background(), Request{Idx: idx, Weights: w})
			if err != nil {
				t.Fatalf("policy %d query %d: %v", policy, q, err)
			}
			h.checkValues(t, res, idx, w)
			if !res.Verified || res.Degraded {
				t.Fatalf("policy %d: Verified=%v Degraded=%v", policy, res.Verified, res.Degraded)
			}
		}
		out, err := tab.QueryBatch(context.Background(), []Request{
			{Idx: []int{1, 40}, Weights: []uint64{2, 3}},
			{Idx: []int{63}, Weights: []uint64{5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.checkValues(t, out[0], []int{1, 40}, []uint64{2, 3})
		h.checkValues(t, out[1], []int{63}, []uint64{5})
		tab.Close()
	}
}
