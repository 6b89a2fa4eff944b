package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"secndp/internal/field"
	"secndp/internal/memory"
)

func TestPlanBatchDedupAndCoalesce(t *testing.T) {
	reqs := []BatchRequest{
		{Idx: []int{3, 7, 3}, Weights: []uint64{2, 5, 9}}, // 3 repeats within the request
		{Idx: []int{7, 1}, Weights: []uint64{4, 1}},       // 7 shared with request 0
		{Idx: []int{3}, Weights: []uint64{6}},             // 3 shared again
		{Idx: []int{9, 9}, Weights: []uint64{1, 1}},       // skipped
	}
	skip := []bool{false, false, false, true}
	// numRows=16 exercises the pooled dense slot table, 0 the map lookup;
	// the plan must be identical either way.
	for _, numRows := range []int{16, 0} {
		plan := planBatch(reqs, skip, numRows)
		if plan.refs != 6 {
			t.Fatalf("numRows=%d: refs = %d, want 6", numRows, plan.refs)
		}
		if len(plan.rows) != 3 {
			t.Fatalf("numRows=%d: distinct rows = %d, want 3 (got %+v)", numRows, len(plan.rows), plan.rows)
		}
		byRow := map[int][]batchUse{}
		for _, pr := range plan.rows {
			byRow[pr.row] = pr.uses
		}
		// Row 3: request 0's two references coalesce to weight 11; request 2
		// contributes its own use.
		if got := byRow[3]; len(got) != 2 || got[0] != (batchUse{req: 0, weight: 11}) || got[1] != (batchUse{req: 2, weight: 6}) {
			t.Fatalf("numRows=%d: row 3 uses = %+v", numRows, got)
		}
		if got := byRow[7]; len(got) != 2 || got[0] != (batchUse{req: 0, weight: 5}) || got[1] != (batchUse{req: 1, weight: 4}) {
			t.Fatalf("numRows=%d: row 7 uses = %+v", numRows, got)
		}
		if _, ok := byRow[9]; ok {
			t.Fatalf("numRows=%d: skipped request leaked into the plan", numRows)
		}
	}
}

func TestPlanBatchCarrySplits(t *testing.T) {
	// Two weights for the same row whose uint64 sum carries: they must stay
	// separate uses — a wrapped sum is a different scalar mod q and would
	// corrupt the tag-pad combination.
	reqs := []BatchRequest{
		{Idx: []int{0, 0}, Weights: []uint64{math.MaxUint64 - 1, 7}},
	}
	plan := planBatch(reqs, nil, 1)
	if len(plan.rows) != 1 || len(plan.rows[0].uses) != 2 {
		t.Fatalf("carrying weights coalesced: %+v", plan.rows)
	}
}

// queryEach is the batch walk's reference: each request run on its own
// through QueryCtx over the in-process NDP, which never takes the walk.
func queryEach(tab *Table, ndp *HonestNDP, reqs []BatchRequest, opts QueryOptions) []BatchResult {
	out := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		out[i].Res, out[i].Err = tab.QueryCtx(context.Background(), ndp, req.Idx, req.Weights, opts)
	}
	return out
}

// TestBatchPipelinedMatchesQueryCtx is the equivalence oracle: a
// duplicate-heavy batch (plus empty and malformed sub-requests) must
// produce byte-identical results and errors through the coalesced pipeline
// and per-request QueryCtx — unverified, and verified under every tag
// placement.
func TestBatchPipelinedMatchesQueryCtx(t *testing.T) {
	for _, pl := range []memory.TagPlacement{memory.TagNone, memory.TagSep, memory.TagColoc, memory.TagECC} {
		verify := pl != memory.TagNone
		s := newTestScheme(t)
		mem := memory.NewSpace()
		geo := mkGeometry(pl, 32, 32, 32)
		rng := rand.New(rand.NewSource(61))
		rows := boundedRows(rng, 32, 32, 1<<20)
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		ndp := &HonestNDP{Mem: mem}
		reqs := make([]BatchRequest, 20)
		for i := range reqs {
			pf := 1 + rng.Intn(12)
			idx := make([]int, pf)
			w := make([]uint64, pf)
			for k := range idx {
				idx[k] = rng.Intn(6) // heavy cross-request duplication
				w[k] = 1 + rng.Uint64()%8
			}
			reqs[i] = BatchRequest{Idx: idx, Weights: w}
		}
		reqs[4] = BatchRequest{}                                                        // empty: zero-vector result
		reqs[9] = BatchRequest{Idx: []int{99}, Weights: []uint64{1}}                    // out of range
		reqs[13] = BatchRequest{Idx: []int{1, 2}, Weights: []uint64{1}}                 // length mismatch
		reqs[17] = BatchRequest{Idx: []int{3, 3}, Weights: []uint64{math.MaxUint64, 9}} // carry split

		opts := QueryOptions{Workers: 4, Verify: verify}
		var stats BatchStats
		optsP := opts
		optsP.Stats = &stats
		pipe := tab.QueryBatchCtx(context.Background(), ndp, reqs, optsP)
		fan := queryEach(tab, ndp, reqs, opts)
		if !stats.Pipelined || stats.WireOps != 1 {
			t.Fatalf("%v: batch did not pipeline: %+v", pl, stats)
		}
		if stats.DistinctRows >= stats.RowRefs {
			t.Fatalf("%v: no dedup on a duplicate-heavy batch: %+v", pl, stats)
		}
		for i := range reqs {
			pe, fe := pipe[i].Err, fan[i].Err
			if (pe == nil) != (fe == nil) {
				t.Fatalf("%v request %d: pipelined err %v, QueryCtx err %v", pl, i, pe, fe)
			}
			if pe != nil {
				if pe.Error() != fe.Error() {
					t.Fatalf("%v request %d: error text diverged: %q vs %q", pl, i, pe, fe)
				}
				continue
			}
			if len(pipe[i].Res) != len(fan[i].Res) {
				t.Fatalf("%v request %d: result width diverged", pl, i)
			}
			for j := range pipe[i].Res {
				if pipe[i].Res[j] != fan[i].Res[j] {
					t.Fatalf("%v request %d col %d: %d != %d",
						pl, i, j, pipe[i].Res[j], fan[i].Res[j])
				}
			}
		}
	}
}

// TestBatchVerifyIsolatesFailures corrupts rows touched by a known subset
// of requests and checks the pipelined batch blames exactly those requests.
func TestBatchVerifyIsolatesFailures(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 24, 32, 32)
	rng := rand.New(rand.NewSource(62))
	rows := boundedRows(rng, 24, 32, 1<<20)
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt rows 20 and 23; requests referencing them must fail, others
	// must verify.
	mem.FlipBit(geo.Layout.RowAddr(20), 3)
	mem.FlipBit(geo.Layout.RowAddr(23), 5)
	ndp := &HonestNDP{Mem: mem}
	reqs := make([]BatchRequest, 16)
	bad := map[int]bool{3: true, 8: true, 15: true}
	for i := range reqs {
		idx := []int{rng.Intn(18), rng.Intn(18)}
		if bad[i] {
			if i == 8 {
				idx = append(idx, 23)
			} else {
				idx = append(idx, 20)
			}
		}
		w := make([]uint64, len(idx))
		for k := range w {
			w[k] = 1 + rng.Uint64()%5
		}
		reqs[i] = BatchRequest{Idx: idx, Weights: w}
	}
	var stats BatchStats
	out := tab.QueryBatchCtx(context.Background(), ndp, reqs,
		QueryOptions{Workers: 2, Verify: true, Stats: &stats})
	if !stats.Pipelined {
		t.Fatal("batch did not pipeline")
	}
	for i := range reqs {
		if bad[i] {
			if !errors.Is(out[i].Err, ErrVerification) {
				t.Fatalf("request %d should fail verification, got %v", i, out[i].Err)
			}
			if out[i].Res != nil {
				t.Fatalf("request %d carries a result despite failing verification", i)
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatalf("clean request %d failed: %v", i, out[i].Err)
		}
		want := plainWeightedSum(geo, rows, reqs[i].Idx, reqs[i].Weights)
		for j := range want {
			if out[i].Res[j] != want[j] {
				t.Fatalf("clean request %d col %d mismatch", i, j)
			}
		}
	}
}

// noBatchNDP fails every exchange as a whole, as a server without the
// batch op does.
type noBatchNDP struct{ NDP }

func (noBatchNDP) WeightedTagSumBatch(context.Context, Geometry, []BatchRequest, bool) ([]NDPBatchResult, error) {
	return nil, errors.ErrUnsupported
}

// TestBatchErrorOnEveryRequest: an exchange that fails as a whole decides
// nothing, so every well-formed request carries its error, a malformed
// one keeps its own, and the stats report no pipelined exchange. A single
// query over that NDP returns the same error.
func TestBatchErrorOnEveryRequest(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(64)), 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	reqs := []BatchRequest{
		{Idx: []int{0, 1}, Weights: []uint64{1, 1}},
		{Idx: []int{9}, Weights: []uint64{1}},
		{Idx: []int{2, 0}, Weights: []uint64{3, 2}},
	}
	ndp := noBatchNDP{&HonestNDP{Mem: mem}}
	var stats BatchStats
	out := tab.QueryBatchCtx(context.Background(), ndp, reqs, QueryOptions{Verify: true, Stats: &stats})
	for _, i := range []int{0, 2} {
		if !errors.Is(out[i].Err, errors.ErrUnsupported) || out[i].Res != nil {
			t.Fatalf("request %d: got %v, %v; want the exchange's error", i, out[i].Res, out[i].Err)
		}
	}
	if !errors.Is(out[1].Err, ErrIndexRange) {
		t.Fatalf("malformed request: got %v, want its own ErrIndexRange", out[1].Err)
	}
	if stats.Pipelined || stats.WireOps != 0 {
		t.Fatalf("stats claim an exchange answered: %+v", stats)
	}
	if _, err := tab.QueryCtx(context.Background(), ndp, reqs[0].Idx, reqs[0].Weights, QueryOptions{Verify: true}); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("single query: got %v, want the exchange's error", err)
	}
}

// TestChecksumRowFieldMatchesUint: on lifted uint64 coefficients the
// field-element polynomial must agree with the uint64 form.
func TestChecksumRowFieldMatchesUint(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, cnt := range []int{1, 2, 3, 4, 6} {
		sd := randSeeds(rng, cnt)
		elems := make([]uint64, 24)
		lifted := make([]field.Elem, len(elems))
		for i := range elems {
			elems[i] = rng.Uint64()
			lifted[i] = field.New(0, elems[i])
		}
		if !checksumRowField(sd, lifted).Equal(checksumRow(sd, elems)) {
			t.Fatalf("cnt=%d: checksumRowField diverges from checksumRow", cnt)
		}
	}
}
