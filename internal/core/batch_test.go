package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/memory"
)

func TestQueryBatchMatchesSequential(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 64, 32, 32)
	rng := rand.New(rand.NewSource(50))
	rows := boundedRows(rng, 64, 32, 1<<20)
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	reqs := make([]BatchRequest, 40)
	for i := range reqs {
		pf := 1 + rng.Intn(10)
		reqs[i] = BatchRequest{Idx: make([]int, pf), Weights: make([]uint64, pf)}
		for k := 0; k < pf; k++ {
			reqs[i].Idx[k] = rng.Intn(64)
			reqs[i].Weights[k] = 1 + rng.Uint64()%8
		}
	}
	batch := tab.QueryBatchCtx(context.Background(), ndp, reqs, QueryOptions{Workers: 8, Verify: true})
	if err := FirstError(batch); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := referenceQuery(tab, ndp, req.Idx, req.Weights, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if batch[i].Res[j] != want[j] {
				t.Fatalf("request %d col %d: batch %d != sequential %d",
					i, j, batch[i].Res[j], want[j])
			}
		}
	}
}

func TestQueryBatchPropagatesVerificationErrors(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(51)), 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	mem.FlipBit(geo.Layout.RowAddr(7), 0) // only queries touching row 7 fail
	ndp := &HonestNDP{Mem: mem}
	reqs := []BatchRequest{
		{Idx: []int{0, 1}, Weights: []uint64{1, 1}},
		{Idx: []int{6, 7}, Weights: []uint64{1, 1}}, // corrupted
		{Idx: []int{2, 3}, Weights: []uint64{1, 1}},
	}
	out := tab.QueryBatchCtx(context.Background(), ndp, reqs, QueryOptions{Workers: 2, Verify: true})
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("clean requests failed: %v %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, ErrVerification) {
		t.Errorf("corrupted request not rejected: %v", out[1].Err)
	}
	if err := FirstError(out); !errors.Is(err, ErrVerification) {
		t.Errorf("FirstError = %v", err)
	}
}

func TestQueryBatchUnverified(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 16, 32, 32)
	rng := rand.New(rand.NewSource(52))
	rows := randRows(rng, geo.ringOf(), 16, 32)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	reqs := []BatchRequest{
		{Idx: []int{0}, Weights: []uint64{3}},
		{Idx: []int{1, 2}, Weights: []uint64{1, 1}},
	}
	out := tab.QueryBatchCtx(context.Background(), ndp, reqs, QueryOptions{}) // workers = GOMAXPROCS
	if err := FirstError(out); err != nil {
		t.Fatal(err)
	}
	r := geo.ringOf()
	if out[0].Res[5] != r.Mul(3, rows[0][5]) {
		t.Error("unverified batch result wrong")
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	tab, _ := s.OpenTable(geo, 1)
	out := tab.QueryBatchCtx(context.Background(), &HonestNDP{Mem: memory.NewSpace()}, nil, QueryOptions{Workers: 4, Verify: true})
	if len(out) != 0 {
		t.Error("empty batch produced results")
	}
	if FirstError(nil) != nil {
		t.Error("FirstError(nil) != nil")
	}
}

// TestQueryBatchEmptyRequestsVerify: a verified batch whose valid
// requests are all empty — two of them, planned to no row, or one with
// coalescing counters, on the one-request arm — answers each with the
// zero sum, which verifies, also on a walk scratch an earlier non-empty
// batch left its tags in.
func TestQueryBatchEmptyRequestsVerify(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 16, 32, 32)
	tab, err := s.EncryptTable(mem, geo, 1, boundedRows(rand.New(rand.NewSource(54)), 16, 32, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	full := []BatchRequest{
		{Idx: []int{1, 2, 3}, Weights: []uint64{2, 3, 4}},
		{Idx: []int{3, 5}, Weights: []uint64{5, 6}},
	}
	for trial := 0; trial < 8; trial++ {
		opts := QueryOptions{Workers: 1, Verify: true}
		if err := FirstError(tab.QueryBatchCtx(context.Background(), ndp, full, opts)); err != nil {
			t.Fatal(err)
		}
		var stats BatchStats
		counted := opts
		counted.Stats = &stats
		for name, run := range map[string]func() []BatchResult{
			"two empty": func() []BatchResult {
				return tab.QueryBatchCtx(context.Background(), ndp, []BatchRequest{{}, {}}, opts)
			},
			"one empty, counted": func() []BatchResult {
				return tab.QueryBatchCtx(context.Background(), ndp, []BatchRequest{{}}, counted)
			},
		} {
			for i, r := range run() {
				if r.Err != nil {
					t.Fatalf("trial %d, %s: request %d: %v", trial, name, i, r.Err)
				}
				if len(r.Res) != geo.Params.M {
					t.Fatalf("trial %d, %s: request %d: %d columns", trial, name, i, len(r.Res))
				}
				for j, v := range r.Res {
					if v != 0 {
						t.Fatalf("trial %d, %s: request %d col %d = %d, want 0", trial, name, i, j, v)
					}
				}
			}
		}
	}
}

// TestWeightedTagSumBatchIntoReuse: one BatchBuffer reused across batches
// that shrink, grow, flip verification and move their bad sub-requests
// answers each exactly as fresh storage does — no sum, tag or error of an
// earlier batch survives into a later one.
func TestWeightedTagSumBatchIntoReuse(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 32, 32, 32)
	rng := rand.New(rand.NewSource(53))
	if _, err := s.EncryptTable(mem, geo, 1, boundedRows(rng, 32, 32, 1<<20)); err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	var buf BatchBuffer
	for trial, n := range []int{12, 3, 20, 1, 20, 7} {
		reqs := make([]BatchRequest, n)
		for i := range reqs {
			pf := rng.Intn(6) // zero rows included: the empty sum
			reqs[i] = BatchRequest{Idx: make([]int, pf), Weights: make([]uint64, pf)}
			for k := 0; k < pf; k++ {
				reqs[i].Idx[k] = rng.Intn(8) // shared rows take the scatter path
				reqs[i].Weights[k] = 1 + rng.Uint64()%8
			}
		}
		reqs[rng.Intn(n)].Idx = []int{99} // one out-of-range sub-request
		verify := trial%2 == 0
		got, err := ndp.WeightedTagSumBatchInto(context.Background(), geo, reqs, verify, &buf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ndp.WeightedTagSumBatch(context.Background(), geo, reqs, verify)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d results for %d sub-requests", trial, len(got), n)
		}
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("trial %d sub %d: error %v, fresh storage %v", trial, i, got[i].Err, want[i].Err)
			}
			if !got[i].Tag.Equal(want[i].Tag) || len(got[i].Sums) != len(want[i].Sums) {
				t.Fatalf("trial %d sub %d: tag or sums shape differs from fresh storage", trial, i)
			}
			for j := range want[i].Sums {
				if got[i].Sums[j] != want[i].Sums[j] {
					t.Fatalf("trial %d sub %d col %d: %d, fresh storage %d", trial, i, j, got[i].Sums[j], want[i].Sums[j])
				}
			}
		}
	}
}
