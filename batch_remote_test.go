package secndp

import (
	"context"
	"math/rand"
	"testing"
)

// The acceptance check for the batched query pipeline at facade level: a
// QueryBatch of N verified requests against a remote NDP server costs
// exactly one opBatch exchange — no per-request weighted-sum or tag-sum
// round trips — with the server's own per-opcode counters as witness,
// and the engine's coalescing metrics telling the same story from the
// trusted side. A single verified Table.Query then costs one more opBatch
// exchange and nothing else.
func TestQueryBatchRemoteOneRoundTrip(t *testing.T) {
	reg := NewTelemetry()
	mem := NewMemory()
	srv := NewServer(mem)
	srv.Instrument(reg)
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
	eng, err := New(testKey, WithTelemetry(reg), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(120))
	rows := testRows(rng, 32, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), RemoteBackend(rc), TableSpec{Rows: 32, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	const n = 8
	reqs := make([]Request, n)
	for i := range reqs {
		// Duplicate-heavy on purpose: every request draws from 6 hot rows.
		reqs[i] = Request{
			Idx:     []int{rng.Intn(6), rng.Intn(6), rng.Intn(6)},
			Weights: []uint64{1 + rng.Uint64()%8, 1 + rng.Uint64()%8, 1 + rng.Uint64()%8},
		}
	}
	out, err := tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		want := plainSum(rows, reqs[i].Idx, reqs[i].Weights, 32, 0xFFFFFFFF)
		for j := range want {
			if out[i].Values[j] != want[j] {
				t.Fatalf("request %d col %d: %d != %d", i, j, out[i].Values[j], want[j])
			}
		}
		if !out[i].Verified {
			t.Fatalf("request %d not verified", i)
		}
	}

	if got := counterValue(reg, "secndp_server_ops_batch_total"); got != 1 {
		t.Fatalf("server served %d batch ops for one QueryBatch, want exactly 1", got)
	}
	if got := counterValue(reg, "secndp_batch_pipelined_total"); got != 1 {
		t.Fatalf("pipelined counter = %d, want 1", got)
	}
	if got := counterValue(reg, "secndp_batch_wire_ops_total"); got != 1 {
		t.Fatalf("wire-ops counter = %d, want 1", got)
	}
	if got := counterValue(reg, "secndp_batch_subrequests_total"); got != n {
		t.Fatalf("sub-request counter = %d, want %d", got, n)
	}
	refs := counterValue(reg, "secndp_batch_rowrefs_total")
	distinct := counterValue(reg, "secndp_batch_distinct_rows_total")
	if refs != 3*n {
		t.Fatalf("row-ref counter = %d, want %d", refs, 3*n)
	}
	if distinct == 0 || distinct >= refs {
		t.Fatalf("dedup counters tell no story: %d distinct of %d refs", distinct, refs)
	}
	// The per-query series must stay comparable with the fan-out path.
	if got := counterValue(reg, "secndp_queries_verified_total"); got != n {
		t.Fatalf("verified counter = %d, want %d", got, n)
	}

	// A single verified query is a batch of one on the wire: one more
	// opBatch exchange.
	res, err := tab.Query(context.Background(), reqs[0])
	if err != nil || !res.Verified {
		t.Fatalf("single query: verified=%v err=%v", res.Verified, err)
	}
	want := plainSum(rows, reqs[0].Idx, reqs[0].Weights, 32, 0xFFFFFFFF)
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("single query col %d: %d != %d", j, res.Values[j], want[j])
		}
	}
	if got := counterValue(reg, "secndp_server_ops_batch_total"); got != 2 {
		t.Fatalf("server served %d batch ops after one QueryBatch and one Query, want exactly 2", got)
	}
}

// TestQueryBatchMixedShapesFanOut: a batch the coalescer cannot serve
// uniformly (per-request column projections) must still succeed through
// the per-request path, and say so in the metrics.
func TestQueryBatchMixedShapesFanOut(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(121))
	rows := testRows(rng, 16, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 16, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	reqs := []Request{
		{Idx: []int{0, 1}, Weights: []uint64{1, 2}},
		{Idx: []int{2, 4}, Weights: []uint64{3, 1}, Cols: []int{0, 5}}, // element-indexed breaks uniformity
	}
	out, err := tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := (3*rows[2][0] + rows[4][5]) & 0xFFFFFFFF; len(out[1].Values) != 1 || out[1].Values[0] != want {
		t.Fatalf("element-indexed request returned %v, want [%d]", out[1].Values, want)
	}
	if got := counterValue(reg, "secndp_batch_fanout_total"); got != 1 {
		t.Fatalf("fanout counter = %d, want 1", got)
	}
	if got := counterValue(reg, "secndp_batch_pipelined_total"); got != 0 {
		t.Fatalf("pipelined counter = %d, want 0 for a mixed-shape batch", got)
	}
}
