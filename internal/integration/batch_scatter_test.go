package integration

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"secndp/internal/cluster"
	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/remote"
	"secndp/internal/remote/faultproxy"
	"secndp/internal/telemetry"
)

// The cluster's batch path starts every shard's exchange from the calling
// goroutine, then reads the replies one by one and folds each, once
// parsed whole, into one slab. Remote exchanges — a bare client's on its
// one connection, a ReliableClient's on a pooled one — split at the wire.
// These tests drive it
// over real connections where a reply can fail half-read, hang, or share
// its client with another shard's or another caller's.

const (
	scatterRows = 64
	scatterCols = 16
)

// scatterTable encrypts a scatterRows×scatterCols 32-bit Ver-sep table
// into a fresh image and returns its plaintext rows.
func scatterTable(t *testing.T) (core.Geometry, *core.Table, *memory.Space, [][]uint64) {
	t.Helper()
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagSep, Base: 0x10000, TagBase: 0x400000,
			NumRows: scatterRows, RowBytes: scatterCols * 4,
		},
		Params: core.Params{We: 32, M: scatterCols},
	}
	rng := rand.New(rand.NewSource(34))
	rows := make([][]uint64, scatterRows)
	for i := range rows {
		rows[i] = make([]uint64, scatterCols)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	image := memory.NewSpace()
	tab, err := scheme.EncryptTable(image, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	return geo, tab, image, rows
}

// scatterServer starts an NDP server (instrumented on reg when non-nil)
// holding the rows of runs, shipped over a client closed afterwards, and
// returns its address.
func scatterServer(t *testing.T, geo core.Geometry, image *memory.Space, runs [][2]int, reg *telemetry.Registry) string {
	t.Helper()
	srv := remote.NewServer(memory.NewSpace())
	srv.Instrument(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, run := range runs {
		if err := cluster.ShipRun(context.Background(), geo, image, run[0], run[1], c); err != nil {
			t.Fatal(err)
		}
	}
	return addr
}

// scatterReqs is a batch whose every request has rows in both halves of
// the table, so each shard of a two-shard range map gets every request.
func scatterReqs() []core.BatchRequest {
	return []core.BatchRequest{
		{Idx: []int{3, 40, 17}, Weights: []uint64{2, 7, 1}},
		{Idx: []int{63, 0}, Weights: []uint64{5, 3}},
		{Idx: []int{32, 31, 32}, Weights: []uint64{1, 4, 6}},
		{Idx: []int{9, 50}, Weights: []uint64{8, 2}},
	}
}

// plainSums is the plaintext oracle of a request.
func plainSums(rows [][]uint64, req core.BatchRequest) []uint64 {
	want := make([]uint64, scatterCols)
	for k, i := range req.Idx {
		for j := range want {
			want[j] = (want[j] + req.Weights[k]*rows[i][j]) & 0xFFFFFFFF
		}
	}
	return want
}

func fastReliable() remote.ReliableConfig {
	return remote.ReliableConfig{Retry: remote.RetryPolicy{
		BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1}}
}

// TestBatchTruncatedReplyFoldedOnce: the preferred replica of shard 1
// dies mid-reply — its first connection is cut inside the second
// sub-result of the batch reply — while shard 0 answers. The shard's
// sibling replica serves it instead, and the batch decrypts to the
// plaintext, verifies and is not degraded: the sub-result that had
// already parsed when the reply broke was never folded, so nothing is
// counted twice. The failover counter reads 1.
func TestBatchTruncatedReplyFoldedOnce(t *testing.T) {
	geo, tab, image, rows := scatterTable(t)
	smap, err := cluster.NewMap(scatterRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The connection's response stream: the pool's health-check ping
	// (statusOK), the capability probe (statusOK, caps), the batch status,
	// then one packed sub-result per request — status, count, 16 lanes of
	// 4 bytes, the 16-byte tag. Cut halfway into the second sub-result.
	const handshake, sub = 1 + 2, 1 + 1 + scatterCols*4 + 16
	proxy := faultproxy.New(scatterServer(t, geo, image, smap.Runs(1), nil),
		faultproxy.Script{{TruncateAfter: handshake + 1 + sub + sub/2}})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	reliable := func(addr string) core.NDP {
		rc := remote.NewReliable(addr, fastReliable())
		t.Cleanup(func() { rc.Close() })
		return rc
	}
	g0, err := cluster.NewGroup(0, []core.NDP{reliable(scatterServer(t, geo, image, smap.Runs(0), nil))}, cluster.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := cluster.NewGroup(1, []core.NDP{
		reliable(paddr),
		reliable(scatterServer(t, geo, image, smap.Runs(1), nil)),
	}, cluster.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cnd, err := cluster.NewReplicated(smap, []*cluster.ReplicaGroup{g0, g1}, cluster.Options{Mirror: image})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cnd.Instrument(reg)

	reqs := scatterReqs()
	ctx, flag := cluster.WithFlag(context.Background())
	out := tab.QueryBatchCtx(ctx, cnd, reqs, core.QueryOptions{Verify: true})
	for i := range reqs {
		if out[i].Err != nil {
			t.Fatalf("request %d: %v", i, out[i].Err)
		}
		if want := plainSums(rows, reqs[i]); !slices.Equal(out[i].Res, want) {
			t.Fatalf("request %d: %v, want %v", i, out[i].Res, want)
		}
	}
	if flag.Any() {
		t.Fatalf("shards %v mirror-filled: the sibling replica must serve the batch", flag.Filled())
	}
	if n := proxy.Conns(); n != 1 {
		t.Fatalf("the cut replica saw %d connections, want 1", n)
	}
	for name, want := range map[string]uint64{
		"secndp_cluster_replica_failovers_total": 1,
		"secndp_cluster_shard_failures_total":    0,
		"secndp_cluster_mirror_fills_total":      0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestBatchDeadlinePoisonsOpenExchange: shard 1's server answers the
// capability probe, then takes the batch request and never answers it.
// The batch ends with the caller's deadline; the hung exchange's
// connection is poisoned, and shard 0's connection, whose exchange
// finished, stays usable.
func TestBatchDeadlinePoisonsOpenExchange(t *testing.T) {
	geo, _, image, _ := scatterTable(t)
	smap, err := cluster.NewMap(scatterRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Served until the client closes its end at cleanup. The probe
			// is one op byte; the answer is statusOK and the full
			// capability word, batch|trace|packed.
			go func() {
				defer conn.Close()
				var probe [1]byte
				if _, err := io.ReadFull(conn, probe[:]); err != nil {
					return
				}
				conn.Write([]byte{0, 7})
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	dial := func(addr string) *remote.Client {
		c, err := remote.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	live, hung := dial(scatterServer(t, geo, image, smap.Runs(0), nil)), dial(ln.Addr().String())
	cnd, err := cluster.New(smap, []core.NDP{live, hung}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cnd.WeightedTagSumBatch(ctx, geo, scatterReqs(), true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch against a hung shard: %v, want context.DeadlineExceeded", err)
	}
	if hung.Usable() {
		t.Error("the hung exchange's connection is still usable")
	}
	if !live.Usable() {
		t.Error("the finished exchange's connection was poisoned")
	}
}

// TestBatchSharedBareClient: one bare client serves both shards. Both
// shards' frames ride its one exchange, so the batch neither deadlocks
// on the client it already holds nor differs from a single NDP holding
// every row.
func TestBatchSharedBareClient(t *testing.T) {
	geo, _, image, _ := scatterTable(t)
	smap, err := cluster.NewMap(scatterRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Dial(scatterServer(t, geo, image, [][2]int{{0, scatterRows}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cnd, err := cluster.New(smap, []core.NDP{c, c}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := scatterReqs()
	type answer struct {
		res []core.NDPBatchResult
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := cnd.WeightedTagSumBatch(context.Background(), geo, reqs, true)
		done <- answer{res, err}
	}()
	var got answer
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch over a client shared by two shards did not return")
	}
	want, err := (&core.HonestNDP{Mem: image}).WeightedTagSumBatch(context.Background(), geo, reqs, true)
	if got.err != nil || err != nil {
		t.Fatalf("batch: %v; oracle: %v", got.err, err)
	}
	for i := range reqs {
		if !slices.Equal(got.res[i].Sums, want[i].Sums) || !got.res[i].Tag.Equal(want[i].Tag) {
			t.Fatalf("request %d differs from the single-NDP answer", i)
		}
	}
}

// TestBatchCrossedBareReplicas: two servers hold every row, and both
// shards' groups front the same two bare clients A and B, in opposite
// orders, round-robin. Two callers batching at once are handed crossed
// replica orders — one asks A then B, the other B then A. A started
// exchange holds its bare client until it finishes, and every caller
// starts its clients' exchanges in Client.LockOrder, so no caller holds
// one client while it waits for the other's: every batch returns, equal
// to a single NDP's answer.
func TestBatchCrossedBareReplicas(t *testing.T) {
	geo, _, image, _ := scatterTable(t)
	smap, err := cluster.NewMap(scatterRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() core.NDP {
		c, err := remote.Dial(scatterServer(t, geo, image, [][2]int{{0, scatterRows}}, nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial(), dial()
	rr := cluster.GroupConfig{Balance: cluster.BalanceRoundRobin}
	g0, err := cluster.NewGroup(0, []core.NDP{a, b}, rr)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := cluster.NewGroup(1, []core.NDP{b, a}, rr)
	if err != nil {
		t.Fatal(err)
	}
	cnd, err := cluster.NewReplicated(smap, []*cluster.ReplicaGroup{g0, g1}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := scatterReqs()
	want, err := (&core.HonestNDP{Mem: image}).WeightedTagSumBatch(context.Background(), geo, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 2, 200
	done := make(chan error, callers)
	for range callers {
		go func() {
			for range rounds {
				res, err := cnd.WeightedTagSumBatch(context.Background(), geo, reqs, true)
				if err != nil {
					done <- err
					return
				}
				for i := range reqs {
					if !slices.Equal(res[i].Sums, want[i].Sums) || !res[i].Tag.Equal(want[i].Tag) {
						done <- fmt.Errorf("request %d differs from the single-NDP answer", i)
						return
					}
				}
			}
			done <- nil
		}()
	}
	guard := time.After(10 * time.Second)
	for range callers {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-guard:
			t.Fatal("batches over crossed bare replicas did not return")
		}
	}
}

// TestBatchTracedScatter: a traced batch takes the same path, split at the
// wire over pooled clients. Each shard's span holds its replica attempt's
// span, and the NDP server's span nests beneath that — the trace prefix
// rode the request frame.
func TestBatchTracedScatter(t *testing.T) {
	geo, _, image, _ := scatterTable(t)
	smap, err := cluster.NewMap(scatterRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	shards := make([]core.NDP, 2)
	for s := range shards {
		rc := remote.NewReliable(scatterServer(t, geo, image, smap.Runs(s), reg), fastReliable())
		t.Cleanup(func() { rc.Close() })
		shards[s] = rc
	}
	cnd, err := cluster.New(smap, shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := reg.StartSpan(context.Background(), "test_batch")
	if _, err := cnd.WeightedTagSumBatch(ctx, geo, scatterReqs(), true); err != nil {
		t.Fatal(err)
	}
	root.End()
	tree, ok := reg.TraceTree(root.Trace())
	if !ok {
		t.Fatal("trace not recorded")
	}
	byID := map[telemetry.SpanID]telemetry.TraceSpan{}
	for _, sp := range tree.Spans {
		byID[sp.ID] = sp
	}
	servers := 0
	for _, sp := range tree.Spans {
		if sp.Op != "server_batch" {
			continue
		}
		servers++
		rep := byID[sp.Parent]
		shard := byID[rep.Parent]
		if rep.Op != "replica0" || (shard.Op != "shard0_batch" && shard.Op != "shard1_batch") || shard.Parent != root.ID() {
			t.Errorf("server span under %q under %q, want replica0 under a shard span", rep.Op, shard.Op)
		}
	}
	if servers != 2 {
		t.Fatalf("%d server batch spans, want 2", servers)
	}
}

// TestBatchPipelinedTruncatedSecondReply is TestBatchTruncatedReplyFoldedOnce
// for a joint exchange: two tables' batches (two cluster NDPs over the
// same transports) ride one pipelined exchange per shard, and shard 1's
// preferred replica cuts its connection inside the reply to the second
// frame. Only that exchange fails: the first frame's reply, already read
// whole, is folded once and kept; the second frame — everything of the
// exchange that was not handed over — fails over to the sibling replica
// as a unit. Both answers equal the single-NDP oracle, nothing is
// mirror-filled, and exactly one failover is counted.
func TestBatchPipelinedTruncatedSecondReply(t *testing.T) {
	geo, _, image, _ := scatterTable(t)
	smap, err := cluster.NewMap(scatterRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqsA := scatterReqs()
	reqsB := []core.BatchRequest{
		{Idx: []int{1, 33}, Weights: []uint64{3, 2}},
		{Idx: []int{60, 2}, Weights: []uint64{1, 9}},
	}
	// The proxied connection's response stream: the pool's health-check
	// ping and the capability probe, then the reply to table A's frame —
	// the batch status and one packed sub-result per request — then the
	// reply to table B's, cut halfway into its first sub-result.
	const handshake, sub = 1 + 2, 1 + 1 + scatterCols*4 + 16
	replyA := 1 + len(reqsA)*sub
	proxy := faultproxy.New(scatterServer(t, geo, image, smap.Runs(1), nil),
		faultproxy.Script{{TruncateAfter: int64(handshake + replyA + 1 + sub/2)}})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	reliable := func(addr string) *remote.ReliableClient {
		rc := remote.NewReliable(addr, fastReliable())
		t.Cleanup(func() { rc.Close() })
		return rc
	}
	shard0 := reliable(scatterServer(t, geo, image, smap.Runs(0), nil))
	shard1 := []core.NDP{reliable(paddr), reliable(scatterServer(t, geo, image, smap.Runs(1), nil))}
	reg := telemetry.NewRegistry()
	clusterOver := func() *cluster.NDP {
		g0, err := cluster.NewGroup(0, []core.NDP{shard0}, cluster.GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		g1, err := cluster.NewGroup(1, shard1, cluster.GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cnd, err := cluster.NewReplicated(smap, []*cluster.ReplicaGroup{g0, g1}, cluster.Options{Mirror: image})
		if err != nil {
			t.Fatal(err)
		}
		cnd.Instrument(reg)
		return cnd
	}

	ctx := context.Background()
	ctxA, flagA := cluster.WithFlag(ctx)
	ctxB, flagB := cluster.WithFlag(ctx)
	parts := []cluster.BatchPart{
		{Ctx: ctxA, NDP: clusterOver(), Geo: geo, Reqs: reqsA, Verify: true},
		{Ctx: ctxB, NDP: clusterOver(), Geo: geo, Reqs: reqsB, Verify: true},
	}
	b := cluster.StartBatches(parts)
	b.Finish()
	b.Close()

	oracle := &core.HonestNDP{Mem: image}
	for i, p := range parts {
		if p.Err != nil {
			t.Fatalf("table %d: %v", i, p.Err)
		}
		want, err := oracle.WeightedTagSumBatch(ctx, geo, p.Reqs, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !slices.Equal(p.Res[j].Sums, want[j].Sums) || !p.Res[j].Tag.Equal(want[j].Tag) {
				t.Fatalf("table %d request %d differs from the single-NDP answer: a reply folded twice or not at all", i, j)
			}
		}
	}
	if flagA.Any() || flagB.Any() {
		t.Fatalf("mirror fills %v / %v: the sibling replica must serve the cut frame", flagA.Filled(), flagB.Filled())
	}
	if n := proxy.Conns(); n != 1 {
		t.Fatalf("the cut replica saw %d connections, want 1: both tables' frames share its exchange", n)
	}
	for name, want := range map[string]uint64{
		"secndp_cluster_replica_failovers_total": 1,
		"secndp_cluster_shard_failures_total":    0,
		"secndp_cluster_mirror_fills_total":      0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if st := shard0.Stats(); st.Attempts != 1 {
		t.Errorf("shard 0 took %d attempts for two tables' frames, want 1 exchange", st.Attempts)
	}
}
