package cluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/telemetry"
)

func mkGeometry(placement memory.TagPlacement, n, m int, we uint) core.Geometry {
	return core.Geometry{
		Layout: memory.Layout{
			Placement: placement,
			Base:      0x10000,
			TagBase:   0x800000,
			NumRows:   n,
			RowBytes:  m * int(we) / 8,
		},
		Params: core.Params{We: we, M: m},
	}
}

func boundedRows(rng *rand.Rand, n, m int, bound uint64) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % bound
		}
	}
	return rows
}

// shardSpaces splits one staging image into per-shard sparse windows,
// mirroring the facade's provisioning framing: per run, the data span
// (with co-located tags via the stride), plus separate tags or per-row
// ECC sidebands by placement.
func shardSpaces(geo core.Geometry, staging *memory.Space, smap *Map) []*memory.Space {
	lay := geo.Layout
	out := make([]*memory.Space, smap.NumShards())
	for s := range out {
		sp := memory.NewSpace()
		for _, run := range smap.Runs(s) {
			lo, hi := run[0], run[1]
			base := lay.RowAddr(lo)
			span := lay.RowAddr(hi-1) + lay.RowStride() - base
			sp.Write(base, staging.Snapshot(base, int(span)))
			switch lay.Placement {
			case memory.TagSep:
				tbase := lay.TagAddr(lo)
				sp.Write(tbase, staging.Snapshot(tbase, (hi-lo)*memory.TagBytes))
			case memory.TagECC:
				for i := lo; i < hi; i++ {
					sp.WriteECC(lay.RowAddr(i), staging.ReadECC(lay.RowAddr(i), memory.TagBytes))
				}
			}
		}
		out[s] = sp
	}
	return out
}

type fixture struct {
	geo     core.Geometry
	tab     *core.Table
	rows    [][]uint64
	staging *memory.Space
	smap    *Map
	shards  []core.NDP
}

func buildFixture(t *testing.T, numShards int, strat Strategy, placement memory.TagPlacement) *fixture {
	t.Helper()
	s, err := core.NewScheme([]byte("k0k1k2k3k4k5k6k7"))
	if err != nil {
		t.Fatal(err)
	}
	geo := mkGeometry(placement, 64, 16, 32)
	rng := rand.New(rand.NewSource(61))
	rows := boundedRows(rng, 64, 16, 1<<20)
	staging := memory.NewSpace()
	tab, err := s.EncryptTable(staging, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	smap, err := NewMap(64, numShards, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	spaces := shardSpaces(geo, staging, smap)
	shards := make([]core.NDP, numShards)
	for i := range shards {
		shards[i] = &core.HonestNDP{Mem: spaces[i]}
	}
	return &fixture{geo: geo, tab: tab, rows: rows, staging: staging, smap: smap, shards: shards}
}

// sumOne is one whole-row query over n, a batch of one: its sums and tag,
// or the batch's or the request's error.
func sumOne(ctx context.Context, n core.NDP, geo core.Geometry, idx []int, w []uint64, verify bool) ([]uint64, field.Elem, error) {
	res, err := n.WeightedTagSumBatch(ctx, geo, []core.BatchRequest{{Idx: idx, Weights: w}}, verify)
	if err != nil {
		return nil, field.Zero, err
	}
	if res[0].Err != nil {
		return nil, field.Zero, res[0].Err
	}
	return res[0].Sums, res[0].Tag, nil
}

func randQuery(rng *rand.Rand, n, k int) ([]int, []uint64) {
	idx := make([]int, k)
	weights := make([]uint64, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
		weights[i] = 1 + rng.Uint64()%8
	}
	return idx, weights
}

// TestClusterEquivalence is the oracle: for 1/2/4/8 shards under both
// strategies, the cluster's data and tag partial sums — and the full
// verified query through the trusted engine — are byte-identical to a
// single NDP holding every row.
func TestClusterEquivalence(t *testing.T) {
	for _, strat := range []Strategy{RangeSharding, HashSharding} {
		for _, numShards := range []int{1, 2, 4, 8} {
			fx := buildFixture(t, numShards, strat, memory.TagSep)
			cnd, err := New(fx.smap, fx.shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			single := &core.HonestNDP{Mem: fx.staging}
			rng := rand.New(rand.NewSource(int64(62 + numShards)))
			ctx := context.Background()
			for q := 0; q < 10; q++ {
				idx, weights := randQuery(rng, 64, 1+rng.Intn(20))

				got, _, err := sumOne(ctx, cnd, fx.geo, idx, weights, false)
				if err != nil {
					t.Fatal(err)
				}
				want := single.WeightedSum(fx.geo, idx, weights)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v/%d shards: sum col %d: %d != %d", strat, numShards, j, got[j], want[j])
					}
				}

				_, gotTag, err := sumOne(ctx, cnd, fx.geo, idx, weights, true)
				if err != nil {
					t.Fatal(err)
				}
				if wantTag := single.TagSum(fx.geo, idx, weights); gotTag != wantTag {
					t.Fatalf("%v/%d shards: tag sum %v != %v", strat, numShards, gotTag, wantTag)
				}

				res, err := fx.tab.QueryVerified(cnd, idx, weights)
				if err != nil {
					t.Fatal(err)
				}
				wantRes, err := fx.tab.QueryVerified(single, idx, weights)
				if err != nil {
					t.Fatal(err)
				}
				for j := range wantRes {
					if res[j] != wantRes[j] {
						t.Fatalf("%v/%d shards: verified col %d: %d != %d", strat, numShards, j, res[j], wantRes[j])
					}
				}
			}
		}
	}
}

// TestClusterBatchEquivalence checks the batched scatter-gather against
// the single-NDP batch pipeline, including tags — on one shard both with
// every request naming a row (the batch is the shard's sub-batch) and
// with an empty one (it is split).
func TestClusterBatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		shards int
		empty  bool
	}{{1, false}, {1, true}, {2, true}, {4, true}} {
		fx := buildFixture(t, tc.shards, HashSharding, memory.TagSep)
		cnd, err := New(fx.smap, fx.shards, Options{})
		if err != nil {
			t.Fatal(err)
		}
		single := &core.HonestNDP{Mem: fx.staging}
		rng := rand.New(rand.NewSource(63))
		reqs := make([]core.BatchRequest, 24)
		for i := range reqs {
			reqs[i].Idx, reqs[i].Weights = randQuery(rng, 64, 1+rng.Intn(12))
		}
		if tc.empty {
			reqs = append(reqs, core.BatchRequest{}) // empty request → zero sums
		}
		ctx := context.Background()
		got, err := cnd.WeightedTagSumBatch(ctx, fx.geo, reqs, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.WeightedTagSumBatch(ctx, fx.geo, reqs, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("request %d: err %v vs %v", i, got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				continue
			}
			for j := range want[i].Sums {
				if got[i].Sums[j] != want[i].Sums[j] {
					t.Fatalf("request %d col %d: %d != %d", i, j, got[i].Sums[j], want[i].Sums[j])
				}
			}
			if got[i].Tag != want[i].Tag {
				t.Fatalf("request %d: tag %v != %v", i, got[i].Tag, want[i].Tag)
			}
		}
	}
}

// callerNDP is an in-process replica that records the goroutine each of
// its batches ran on.
type callerNDP struct {
	core.NDP
	mu  sync.Mutex
	ids []string
}

func (c *callerNDP) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	c.mu.Lock()
	c.ids = append(c.ids, goroutineID())
	c.mu.Unlock()
	return c.NDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestBatchScatterOnCaller: a batch over in-process replicas starts no
// goroutine per shard, traced or not — every shard answers on the
// caller's goroutine — and a traced batch still opens one span per shard.
func TestBatchScatterOnCaller(t *testing.T) {
	fx := buildFixture(t, 4, HashSharding, memory.TagSep)
	shards := make([]core.NDP, len(fx.shards))
	recs := make([]*callerNDP, len(fx.shards))
	for s := range shards {
		recs[s] = &callerNDP{NDP: fx.shards[s]}
		shards[s] = recs[s]
	}
	cnd, err := New(fx.smap, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]core.BatchRequest, 16)
	rng := rand.New(rand.NewSource(64))
	for i := range reqs {
		reqs[i].Idx, reqs[i].Weights = randQuery(rng, 64, 8)
	}
	reg := telemetry.NewRegistry()
	traced, root := reg.StartSpan(context.Background(), "test_batch")
	for _, ctx := range []context.Context{context.Background(), traced} {
		if _, err := cnd.WeightedTagSumBatch(ctx, fx.geo, reqs, true); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	me := goroutineID()
	for s, rec := range recs {
		if len(rec.ids) != 2 {
			t.Fatalf("shard %d answered %d batches, want 2", s, len(rec.ids))
		}
		for _, id := range rec.ids {
			if id != me {
				t.Fatalf("shard %d answered on goroutine %s, the caller is %s", s, id, me)
			}
		}
	}
	tree, _ := reg.TraceTree(root.Trace())
	shardSpans := 0
	for _, sp := range tree.Spans {
		if strings.HasSuffix(sp.Op, "_batch") && sp.Parent == root.ID() {
			shardSpans++
		}
	}
	if shardSpans != len(recs) {
		t.Fatalf("%d shard spans in the traced batch, want %d", shardSpans, len(recs))
	}
}

// failNDP fails every operation the way a dead transport does.
type failNDP struct{}

var errFailNDP = errors.New("failNDP: down")

func (failNDP) WeightedSumElem(context.Context, core.Geometry, []int, []int, []uint64) (uint64, error) {
	return 0, errFailNDP
}
func (failNDP) WeightedTagSumBatch(context.Context, core.Geometry, []core.BatchRequest, bool) ([]core.NDPBatchResult, error) {
	return nil, errFailNDP
}

// TestMirrorFill kills one shard: with the mirror attached the gather
// still answers exactly the single-NDP result, verification passes, and
// the context flag names the filled shard; without a mirror the gather
// fails naming the shard.
func TestMirrorFill(t *testing.T) {
	fx := buildFixture(t, 4, RangeSharding, memory.TagSep)
	fx.shards[2] = failNDP{}

	reg := telemetry.NewRegistry()
	cnd, err := New(fx.smap, fx.shards, Options{Mirror: fx.staging})
	if err != nil {
		t.Fatal(err)
	}
	cnd.Instrument(reg)
	single := &core.HonestNDP{Mem: fx.staging}
	idx := []int{0, 17, 33, 40, 63} // rows 33, 40 live on shard 2 (chunk 16)
	weights := []uint64{1, 2, 3, 4, 5}

	ctx, flag := WithFlag(context.Background())
	res, err := fx.tab.QueryCtx(ctx, cnd, idx, weights, core.QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.tab.QueryVerified(single, idx, weights)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if res[j] != want[j] {
			t.Fatalf("filled col %d: %d != %d", j, res[j], want[j])
		}
	}
	filled := flag.Filled()
	if len(filled) != 1 || filled[0] != 2 {
		t.Fatalf("filled shards: %v, want [2]", filled)
	}
	if !flag.Any() {
		t.Fatal("flag.Any() = false after fill")
	}

	// Without a mirror, the same query fails and the error names shard 2.
	bare, err := New(fx.smap, fx.shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sumOne(context.Background(), bare, fx.geo, idx, weights, false)
	if err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("mirrorless gather: %v", err)
	}
}

// TestMirrorFillBatch kills one shard mid-batch and checks the filled
// batch equals the single-NDP batch, with the flag set; without a mirror,
// only the requests with a row on the dead shard fail.
func TestMirrorFillBatch(t *testing.T) {
	fx := buildFixture(t, 4, RangeSharding, memory.TagSep)
	fx.shards[1] = failNDP{}
	cnd, err := New(fx.smap, fx.shards, Options{Mirror: fx.staging})
	if err != nil {
		t.Fatal(err)
	}
	single := &core.HonestNDP{Mem: fx.staging}
	rng := rand.New(rand.NewSource(64))
	reqs := make([]core.BatchRequest, 16)
	for i := range reqs {
		reqs[i].Idx, reqs[i].Weights = randQuery(rng, 64, 8)
	}
	ctx, flag := WithFlag(context.Background())
	got, err := cnd.WeightedTagSumBatch(ctx, fx.geo, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.WeightedTagSumBatch(context.Background(), fx.geo, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i].Sums {
			if got[i].Sums[j] != want[i].Sums[j] {
				t.Fatalf("request %d col %d: %d != %d", i, j, got[i].Sums[j], want[i].Sums[j])
			}
		}
		if got[i].Tag != want[i].Tag {
			t.Fatalf("request %d: tag mismatch", i)
		}
	}
	if filled := flag.Filled(); len(filled) != 1 || filled[0] != 1 {
		t.Fatalf("filled shards: %v, want [1]", filled)
	}

	// Without a mirror the dead shard fails only the requests with a row
	// on it, each with the shard's error; the others keep their answers.
	bare, _ := New(fx.smap, fx.shards, Options{})
	reqs = append(reqs, core.BatchRequest{Idx: []int{0, 40, 63}, Weights: []uint64{1, 2, 3}})
	if want, err = single.WeightedTagSumBatch(context.Background(), fx.geo, reqs, true); err != nil {
		t.Fatal(err)
	}
	if got, err = bare.WeightedTagSumBatch(context.Background(), fx.geo, reqs, true); err != nil {
		t.Fatalf("mirrorless batch gather failed as a whole: %v", err)
	}
	for i := range reqs {
		dead := slices.ContainsFunc(reqs[i].Idx, func(row int) bool { return fx.smap.Shard(row) == 1 })
		if dead && !errors.Is(got[i].Err, errFailNDP) {
			t.Fatalf("request %d reads the dead shard: got %v", i, got[i].Err)
		}
		if !dead && (got[i].Err != nil || !slices.Equal(got[i].Sums, want[i].Sums) || got[i].Tag != want[i].Tag) {
			t.Fatalf("request %d avoids the dead shard: err %v, or its answer differs", i, got[i].Err)
		}
	}
}

// shardlessMirror is a mirror that cannot fill shard: it fails every
// sub-batch naming one of its rows.
type shardlessMirror struct {
	core.NDP
	smap  *Map
	shard int
}

func (m shardlessMirror) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	for _, req := range reqs {
		if slices.ContainsFunc(req.Idx, func(row int) bool { return m.smap.Shard(row) == m.shard }) {
			return nil, errors.New("shardlessMirror: fill refused")
		}
	}
	return m.NDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// TestMirrorFillEveryFailedShard kills both shards and refuses the mirror
// fill of the first: the second is still offered to the mirror, so its
// requests come back filled and exact, and only the requests with a row
// on shard 0 fail, with shard 0's error.
func TestMirrorFillEveryFailedShard(t *testing.T) {
	fx := buildFixture(t, 2, RangeSharding, memory.TagSep) // rows 0–31 on shard 0
	fx.shards[0], fx.shards[1] = failNDP{}, failNDP{}
	cnd, err := New(fx.smap, fx.shards, Options{Mirror: fx.staging})
	if err != nil {
		t.Fatal(err)
	}
	cnd.mirror = shardlessMirror{NDP: cnd.mirror, smap: fx.smap, shard: 0}
	reqs := []core.BatchRequest{
		{Idx: []int{40, 33, 63}, Weights: []uint64{1, 2, 3}},
		{Idx: []int{5, 40}, Weights: []uint64{4, 5}},
		{Idx: []int{50}, Weights: []uint64{6}},
		{Idx: []int{7}, Weights: []uint64{7}},
	}
	ctx, flag := WithFlag(context.Background())
	got, err := cnd.WeightedTagSumBatch(ctx, fx.geo, reqs, true)
	if err != nil {
		t.Fatalf("batch failed as a whole: %v", err)
	}
	want, err := (&core.HonestNDP{Mem: fx.staging}).WeightedTagSumBatch(context.Background(), fx.geo, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil || !slices.Equal(got[i].Sums, want[i].Sums) || got[i].Tag != want[i].Tag {
			t.Fatalf("request %d on shard 1 alone: err %v, or its filled answer differs", i, got[i].Err)
		}
	}
	for _, i := range []int{1, 3} {
		if !errors.Is(got[i].Err, errFailNDP) {
			t.Fatalf("request %d reads shard 0: got %v, want the shard's error", i, got[i].Err)
		}
	}
	if filled := flag.Filled(); !slices.Equal(filled, []int{1}) {
		t.Fatalf("filled shards: %v, want [1]", filled)
	}
}

// TestLocateFault corrupts one shard's memory and checks the bisection
// pins the verification failure on exactly that shard.
func TestLocateFault(t *testing.T) {
	fx := buildFixture(t, 8, RangeSharding, memory.TagSep)
	spaces := shardSpaces(fx.geo, fx.staging, fx.smap)
	for i := range fx.shards {
		fx.shards[i] = &core.HonestNDP{Mem: spaces[i]}
	}
	// Corrupt a row owned by shard 5 (chunk = 8 → rows 40..47).
	spaces[5].FlipBit(fx.geo.Layout.RowAddr(42), 3)
	cnd, err := New(fx.smap, fx.shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 64)
	weights := make([]uint64, 64)
	for i := range idx {
		idx[i] = i
		weights[i] = 1
	}
	_, qerr := fx.tab.QueryCtx(context.Background(), cnd, idx, weights, core.QueryOptions{Verify: true})
	if !errors.Is(qerr, core.ErrVerification) {
		t.Fatalf("corrupted query: %v", qerr)
	}
	bad, err := cnd.LocateFault(context.Background(), fx.tab, idx, weights, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 5 {
		t.Fatalf("located %v, want [5]", bad)
	}
}

// TestClusterTelemetry checks the per-shard series land on the registry.
func TestClusterTelemetry(t *testing.T) {
	fx := buildFixture(t, 2, RangeSharding, memory.TagSep)
	reg := telemetry.NewRegistry()
	cnd, err := New(fx.smap, fx.shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cnd.Instrument(reg)
	idx, weights := []int{0, 63}, []uint64{1, 1}
	if _, _, err := sumOne(context.Background(), cnd, fx.geo, idx, weights, false); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	got := map[string]bool{}
	for _, c := range snap.Counters {
		got[c.Name] = true
	}
	for _, h := range snap.Histograms {
		got[h.Name] = true
	}
	for _, name := range []string{
		"secndp_cluster_gathers_total",
		"secndp_cluster_shard0_subops_total",
		"secndp_cluster_shard1_subops_total",
		"secndp_cluster_shard0_seconds",
	} {
		if !got[name] {
			t.Fatalf("metric %s missing from snapshot", name)
		}
	}
}
