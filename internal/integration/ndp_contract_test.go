package integration

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"secndp/internal/cluster"
	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/remote"
	"secndp/internal/remote/faultproxy"
)

// This file is the conformance suite for core.NDP: every implementation —
// in process, over the wire, fault-tolerant, gated, and sharded — runs the
// same cases against the same encrypted table and the plaintext oracle.

const (
	contractRows = 64
	contractCols = 16
)

// contractNDP is one implementation under test. elem reports whether it
// serves the element op; one that does not must say errors.ErrUnsupported.
type contractNDP struct {
	name string
	nd   core.NDP
	elem bool
}

// contractServer starts an NDP server over empty memory and returns its
// address.
func contractServer(t *testing.T) string {
	t.Helper()
	srv := remote.NewServer(memory.NewSpace())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// contractClient dials a fresh server and ships it the table image's rows
// in runs, each a [lo, hi) row range.
func contractClient(t *testing.T, geo core.Geometry, image *memory.Space, runs [][2]int) *remote.Client {
	t.Helper()
	c, err := remote.Dial(contractServer(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, run := range runs {
		if err := cluster.ShipRun(context.Background(), geo, image, run[0], run[1], c); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// contractCluster builds a cluster of numShards replica groups of
// numReplicas wire clients, each replica holding only its shard's rows.
func contractCluster(t *testing.T, geo core.Geometry, image *memory.Space, numShards, numReplicas int) *cluster.NDP {
	t.Helper()
	smap, err := cluster.NewMap(contractRows, numShards, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]*cluster.ReplicaGroup, numShards)
	for s := range groups {
		reps := make([]core.NDP, numReplicas)
		for r := range reps {
			reps[r] = contractClient(t, geo, image, smap.Runs(s))
		}
		if groups[s], err = cluster.NewGroup(s, reps, cluster.GroupConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	cnd, err := cluster.NewReplicated(smap, groups, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cnd
}

func contractImpls(t *testing.T, geo core.Geometry, image *memory.Space) []contractNDP {
	t.Helper()
	reliable, err := remote.DialReliable(context.Background(), contractServer(t), remote.ReliableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reliable.Close() })
	gate := faultproxy.NewGate(memory.NewSpace())
	for _, w := range []cluster.BlobWriter{reliable, gate} {
		if err := cluster.ShipRun(context.Background(), geo, image, 0, contractRows, w); err != nil {
			t.Fatal(err)
		}
	}
	return []contractNDP{
		{"HonestNDP", &core.HonestNDP{Mem: image}, true},
		{"remote.Client", contractClient(t, geo, image, [][2]int{{0, contractRows}}), false},
		{"ReliableClient", reliable, false},
		{"faultproxy.Gate", gate, true},
		{"cluster 1x1", contractCluster(t, geo, image, 1, 1), true},
		{"cluster 2x2", contractCluster(t, geo, image, 2, 2), true},
		{"cluster 2x1 mirror fill", contractMirrorCluster(t, geo, image), true},
	}
}

// downNDP is a replica that fails every call.
type downNDP struct{}

var errDown = errors.New("replica down")

func (downNDP) WeightedSumElem(context.Context, core.Geometry, []int, []int, []uint64) (uint64, error) {
	return 0, errDown
}

func (downNDP) WeightedTagSumBatch(context.Context, core.Geometry, []core.BatchRequest, bool) ([]core.NDPBatchResult, error) {
	return nil, errDown
}

// contractMirrorCluster builds a two-shard cluster whose second shard's
// only replica is down, so every partial of that shard is a mirror fill
// from the table image.
func contractMirrorCluster(t *testing.T, geo core.Geometry, image *memory.Space) *cluster.NDP {
	t.Helper()
	smap, err := cluster.NewMap(contractRows, 2, cluster.RangeSharding, 1)
	if err != nil {
		t.Fatal(err)
	}
	up, err := cluster.NewGroup(0, []core.NDP{contractClient(t, geo, image, smap.Runs(0))}, cluster.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	down, err := cluster.NewGroup(1, []core.NDP{downNDP{}}, cluster.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cnd, err := cluster.NewReplicated(smap, []*cluster.ReplicaGroup{up, down}, cluster.Options{Mirror: image})
	if err != nil {
		t.Fatal(err)
	}
	return cnd
}

// TestNDPContractConformance: for every core.NDP implementation, a
// one-request WeightedTagSumBatch decrypts to the plaintext sum and its
// tag verifies (verify on; verify off answers no tag);
// WeightedSumElem decrypts to the plaintext element sum or is
// errors.ErrUnsupported; every method returns the context's error under a
// pre-cancelled context; and an out-of-range row or column through the
// engine comes back as ErrIndexRange, never as a panic. Batch answers are
// the caller's (checkBatchOwnership).
func TestNDPContractConformance(t *testing.T) {
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: memory.TagSep, Base: 0x10000, TagBase: 0x400000,
			NumRows: contractRows, RowBytes: contractCols * 4,
		},
		Params: core.Params{We: 32, M: contractCols},
	}
	rng := rand.New(rand.NewSource(27))
	rows := make([][]uint64, contractRows)
	for i := range rows {
		rows[i] = make([]uint64, contractCols)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	image := memory.NewSpace()
	tab, err := scheme.EncryptTable(image, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Rows on both shards of the 2-shard cluster, one repeated.
	idx := []int{3, 40, 17, 63, 40}
	w := []uint64{2, 7, 1, 5, 3}
	jdx := []int{0, 15, 8, 3, 9}
	want := make([]uint64, contractCols)
	var wantElem uint64
	for k, i := range idx {
		for j := range want {
			want[j] = (want[j] + w[k]*rows[i][j]) & 0xFFFFFFFF
		}
		wantElem = (wantElem + w[k]*rows[i][jdx[k]]) & 0xFFFFFFFF
	}
	ctx := context.Background()
	eres, err := tab.OTPWeightedSumCtx(ctx, idx, w, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eElem, err := tab.OTPWeightedSumElem(idx, jdx, w)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	for _, impl := range contractImpls(t, geo, image) {
		t.Run(impl.name, func(t *testing.T) {
			nd := impl.nd
			for _, verify := range []bool{false, true} {
				batch, err := nd.WeightedTagSumBatch(ctx, geo, []core.BatchRequest{{Idx: idx, Weights: w}}, verify)
				if err != nil || len(batch) != 1 || batch[0].Err != nil {
					t.Fatalf("verify=%v: WeightedTagSumBatch: %v %+v", verify, err, batch)
				}
				sums, tag := batch[0].Sums, batch[0].Tag
				if res := tab.Decrypt(sums, eres); !slices.Equal(res, want) {
					t.Fatalf("verify=%v: decrypted sums diverge from the plaintext", verify)
				}
				if !verify {
					if !tag.Equal(field.Zero) {
						t.Fatal("unverified WeightedTagSumBatch returned a tag")
					}
					continue
				}
				if ok, err := tab.Verify(idx, w, tab.Decrypt(sums, eres), tag); err != nil || !ok {
					t.Fatalf("tag does not verify: %v", err)
				}
				if got, err := tab.QueryCtx(ctx, nd, idx, w, core.QueryOptions{Verify: true}); err != nil || !slices.Equal(got, want) {
					t.Fatalf("verified query: %v", err)
				}
			}

			checkBatchOwnership(t, nd, geo, idx, w)

			switch v, err := nd.WeightedSumElem(ctx, geo, idx, jdx, w); {
			case !impl.elem:
				if !errors.Is(err, errors.ErrUnsupported) {
					t.Errorf("WeightedSumElem on a transport without the op: got %v, want errors.ErrUnsupported", err)
				}
			case err != nil:
				t.Errorf("WeightedSumElem: %v", err)
			case (v+eElem)&0xFFFFFFFF != wantElem:
				t.Errorf("WeightedSumElem decrypts to %d, want %d", (v+eElem)&0xFFFFFFFF, wantElem)
			}

			if _, err := nd.WeightedSumElem(cancelled, geo, idx, jdx, w); !errors.Is(err, context.Canceled) {
				t.Errorf("WeightedSumElem under a cancelled context: %v", err)
			}
			if _, err := nd.WeightedTagSumBatch(cancelled, geo, []core.BatchRequest{{Idx: idx, Weights: w}}, true); !errors.Is(err, context.Canceled) {
				t.Errorf("WeightedTagSumBatch under a cancelled context: %v", err)
			}

			bad := []int{3, contractRows}
			if _, err := tab.QueryCtx(ctx, nd, bad, w[:2], core.QueryOptions{Verify: true}); !errors.Is(err, core.ErrIndexRange) {
				t.Errorf("query over row %d: %v", contractRows, err)
			}
			out := tab.QueryBatchCtx(ctx, nd, []core.BatchRequest{{Idx: bad, Weights: w[:2]}, {Idx: idx, Weights: w}}, core.QueryOptions{Verify: true})
			if !errors.Is(out[0].Err, core.ErrIndexRange) || out[1].Err != nil || !slices.Equal(out[1].Res, want) {
				t.Errorf("batch with row %d: %v, sibling %v", contractRows, out[0].Err, out[1].Err)
			}
			for _, cols := range [][]int{{0, contractCols}, {-1, 0}} {
				if _, err := tab.QueryElemCtx(ctx, nd, idx[:2], cols, w[:2]); !errors.Is(err, core.ErrIndexRange) {
					t.Errorf("element query over columns %v: %v", cols, err)
				}
			}
			if _, err := tab.QueryElemCtx(ctx, nd, bad, jdx[:2], w[:2]); !errors.Is(err, core.ErrIndexRange) {
				t.Errorf("element query over row %d: %v", contractRows, err)
			}
		})
	}
}

// checkBatchOwnership holds an NDP to the ownership rule of
// core.NDP.WeightedTagSumBatch, which the cluster merge and the core join
// rely on when they accumulate into the answered sums: every sub-result's
// Sums has m columns and is fresh storage of its own — overwriting it
// changes no other sub-result and no later answer, and no later answer
// writes into it — and a sub-request
// with no rows answers m zeros. The batch repeats a request and an empty
// request, so an implementation that shares one answer between equal
// requests, or one zero vector between empty ones, is caught.
func checkBatchOwnership(t *testing.T, nd core.NDP, geo core.Geometry, idx []int, w []uint64) {
	t.Helper()
	ctx := context.Background()
	m := geo.Params.M
	reqs := []core.BatchRequest{
		{Idx: idx, Weights: w},
		{},
		{Idx: []int{3, 17}, Weights: []uint64{2, 1}},  // the first shard alone
		{Idx: []int{40, 63}, Weights: []uint64{7, 5}}, // the second shard alone
		{Idx: idx, Weights: w},
		{},
	}
	answer := func() []core.NDPBatchResult {
		out, err := nd.WeightedTagSumBatch(ctx, geo, reqs, true)
		if err != nil || len(out) != len(reqs) {
			t.Fatalf("ownership batch: %v, %d results", err, len(out))
		}
		for i, r := range out {
			if r.Err != nil || len(r.Sums) != m {
				t.Fatalf("ownership batch request %d: %v, %d columns, want %d", i, r.Err, len(r.Sums), m)
			}
		}
		return out
	}
	out := answer()
	for _, i := range []int{1, 5} {
		if slices.ContainsFunc(out[i].Sums, func(v uint64) bool { return v != 0 }) || !out[i].Tag.Equal(field.Zero) {
			t.Fatalf("empty request %d answered %v, tag %v", i, out[i].Sums, out[i].Tag)
		}
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if overlaps(out[i].Sums, out[j].Sums) {
				t.Fatalf("requests %d and %d share backing storage", i, j)
			}
		}
	}
	want := make([][]uint64, len(out))
	for i := range out {
		want[i] = slices.Clone(out[i].Sums)
	}
	for i := range out {
		for c := range out[i].Sums {
			out[i].Sums[c] = ^uint64(0)
		}
		for j := i + 1; j < len(out); j++ {
			if !slices.Equal(out[j].Sums, want[j]) {
				t.Fatalf("overwriting request %d changed request %d", i, j)
			}
		}
	}
	for i, r := range answer() {
		if !slices.Equal(r.Sums, want[i]) {
			t.Fatalf("request %d: a later answer changed after the caller overwrote the first", i)
		}
		if slices.ContainsFunc(out[i].Sums, func(v uint64) bool { return v != ^uint64(0) }) {
			t.Fatalf("request %d: a later answer wrote into the first one's storage", i)
		}
	}
}

// overlaps reports whether a's and b's backing arrays, up to capacity,
// share a word.
func overlaps(a, b []uint64) bool {
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*8 && b0 < a0+uintptr(cap(a))*8
}
