package secndp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/core"
	"secndp/internal/field"
)

// TestQueryReachesFusedWalk: a verified Table.Query on a LocalBackend
// table runs the fused keystream walk — data pads and tag
// pads out of one pass. The OTP engine counters show it: the fused kernel
// costs one engine run per row plus at most one tag-pad gather per 64
// rows, where separate pad and tag passes sharded over four workers (what
// WithParallelism(4) selected before the query engine planned small
// queries inline) cost one gather per worker on top of the rows.
func TestQueryReachesFusedWalk(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(rand.New(rand.NewSource(90)), 64, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: 64, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	runs := func() uint64 {
		return counterValue(reg, "secndp_otp_engine_native_total") +
			counterValue(reg, "secndp_otp_engine_stream_total") +
			counterValue(reg, "secndp_otp_engine_perblock_total")
	}
	req := Request{Idx: make([]int, 16), Weights: make([]uint64, 16)}
	for k := range req.Idx {
		req.Idx[k], req.Weights[k] = 4*k, uint64(k+1)
	}
	before := runs()
	res, err := tab.Query(context.Background(), req)
	if err != nil || !res.Verified {
		t.Fatalf("verified query: %+v, %v", res, err)
	}
	if got := runs() - before; got > 17 {
		t.Errorf("16-row verified query took %d keystream engine runs, want <= 17 (one per row + one tag gather)", got)
	}
}

// TestQueryAllocationBudget: a verified 80-row Table.Query on LocalBackend
// — the benchmark's sls_local operation — allocates at most 2 objects
// (29 before the engine ran small queries inline, 5 before its NDP half
// became one gather walk, 3 while that walk's memory view was
// heap-allocated).
func TestQueryAllocationBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation perturbs allocation counts")
	}
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	rows := testRows(rng, 1024, 64, 1<<16)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: 1024, Cols: 64}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	req := Request{Idx: make([]int, 80), Weights: make([]uint64, 80)}
	for k := range req.Idx {
		req.Idx[k], req.Weights[k] = rng.Intn(1024), 1
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tab.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per verified 80-row query", allocs)
	if raceEnabled {
		return // correctness only: see race_test.go
	}
	if allocs > 2 {
		t.Errorf("verified 80-row Table.Query allocates %.1f objects/op, want <= 2", allocs)
	}
}

// tagForgingNDP forges the tag half of every batch answer and
// sumCorruptingNDP corrupts its sum half; each inherits everything else
// from the HonestNDP it embeds.
type tagForgingNDP struct{ core.HonestNDP }

func (f *tagForgingNDP) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	res, err := f.HonestNDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
	for i := range res {
		res[i].Tag = field.Add(res[i].Tag, field.One)
	}
	return res, err
}

type sumCorruptingNDP struct{ core.HonestNDP }

func (c *sumCorruptingNDP) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	res, err := c.HonestNDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
	for i := range res {
		if res[i].Err == nil {
			res[i].Sums[0] ^= 1
		}
	}
	return res, err
}

// TestQueryReachesOverridingLocalNDP: a verified Table.Query on
// LocalBackend asks its NDP through the core.NDP contract, so an NDP that
// embeds HonestNDP and overrides WeightedTagSumBatch is asked through that
// override, and a forged tag or a corrupted sum is rejected.
func TestQueryReachesOverridingLocalNDP(t *testing.T) {
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(rand.New(rand.NewSource(93)), 64, 32, 1<<16)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: 64, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	req := Request{Idx: []int{3, 9, 27, 9}, Weights: []uint64{2, 1, 5, 3}}
	st := tab.state.Load()
	honest := st.ndp.(*core.HonestNDP)
	for name, ndp := range map[string]core.NDP{
		"forged tag":    &tagForgingNDP{*honest},
		"corrupted sum": &sumCorruptingNDP{*honest},
	} {
		swapped := *st
		swapped.ndp = ndp
		tab.state.Store(&swapped)
		if _, err := tab.Query(context.Background(), req); !errors.Is(err, ErrVerification) {
			t.Errorf("%s: got %v, want ErrVerification", name, err)
		}
	}
}

// TestProvisionOverOneMiB: a table whose data span exceeds the wire
// protocol's 1 MiB frame limit provisions over RemoteBackend and over a
// 2-shard ClusterBackend (each shard's run is itself over 1 MiB) and
// answers a verified query.
func TestProvisionOverOneMiB(t *testing.T) {
	const n, m = 10000, 64 // 10 000 × 256 B = 2.4 MiB
	rows := testRows(rand.New(rand.NewSource(92)), n, m, 1<<16)
	req := Request{Idx: []int{0, 4095, 4096, 5000, n - 1}, Weights: []uint64{1, 2, 3, 4, 5}}
	want := plainSum(rows, req.Idx, req.Weights, m, 0xFFFFFFFF)
	backends := map[string]func(t *testing.T) Backend{
		"remote": func(t *testing.T) Backend {
			srv := NewServer(NewMemory())
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			client, err := DialNDP(context.Background(), addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			return RemoteBackend(client)
		},
		"cluster": func(t *testing.T) Backend {
			specs := make([]ShardSpec, 2)
			for i := range specs {
				srv := NewServer(NewMemory())
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				specs[i] = ShardSpec{Addr: addr}
			}
			return ClusterBackend(specs...)
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			eng, err := New(testKey, WithTransport(fastTransport()))
			if err != nil {
				t.Fatal(err)
			}
			tab, err := eng.CreateTable(context.Background(), mk(t), TableSpec{Rows: n, Cols: m}, rows)
			if err != nil {
				t.Fatalf("provisioning a %d-byte table: %v", n*m*4, err)
			}
			defer tab.Close()
			res, err := tab.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified || res.Degraded {
				t.Fatalf("verified=%v degraded=%v, want a verified NDP answer", res.Verified, res.Degraded)
			}
			for j := range want {
				if res.Values[j] != want[j] {
					t.Fatalf("col %d: %d != %d", j, res.Values[j], want[j])
				}
			}
		})
	}
}
