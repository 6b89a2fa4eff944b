package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/telemetry"
)

// This file holds the engine's test-only serial reference and the tests
// that pin the engine's three shapes to it: a short query over HonestNDP
// (back to back, one-request arm), a long one (planned, overlapped) and a
// query over any other NDP (the exchange in flight during the sweep).

// referencePadSum is Algorithm 4 lines 8–14 one row at a time: each row's
// pad vector materialized by padRow and folded with plain ring arithmetic.
func referencePadSum(tab *Table, idx []int, w []uint64) []uint64 {
	acc := make([]uint64, tab.geo.Params.M)
	for k, i := range idx {
		for j, e := range tab.padRow(i) {
			acc[j] = tab.r.Reduce(acc[j] + w[k]*e)
		}
	}
	return acc
}

// referenceTagPadSum is Algorithm 5 lines 11–14 one row at a time: one
// single-block tag-pad encryption and one reduced field multiply per row.
func referenceTagPadSum(tab *Table, idx []int, w []uint64) field.Elem {
	sum := field.Zero
	for k, i := range idx {
		pad := tab.scheme.gen.TagPad(tab.geo.Layout.RowAddr(i), tab.version)
		sum = field.Add(sum, field.MulUint64(field.FromBytes(pad[:]), w[k]))
	}
	return sum
}

// referenceQuery is the serial reference every equivalence test compares
// the engine against: Algorithms 4 and 5 built from copyNDP's copying
// reads of ndp's memory, per-row padRow, per-row Generator.TagPad and
// checksumRowNaive. It shares no kernel with the gather, otpWalk,
// otpBatch, tagDot or resultChecksum.
func referenceQuery(tab *Table, ndp *HonestNDP, idx []int, w []uint64, verify bool) ([]uint64, error) {
	if err := tab.checkQuery(idx, w); err != nil {
		return nil, err
	}
	ref := copyNDP{ndp.Mem}
	cres := ref.WeightedSum(tab.geo, idx, w)
	res := referencePadSum(tab, idx, w)
	for j := range res {
		res[j] = tab.r.Reduce(res[j] + cres[j])
	}
	if verify {
		mac := field.Add(ref.TagSum(tab.geo, idx, w), referenceTagPadSum(tab, idx, w))
		if !checksumRowNaive(tab.seeds, res).Equal(mac) {
			return nil, ErrVerification
		}
	}
	return res, nil
}

// queryUnverified is Algorithm 4 alone through the engine.
func queryUnverified(tab *Table, ndp NDP, idx []int, w []uint64) ([]uint64, error) {
	return tab.QueryCtx(context.Background(), ndp, idx, w, QueryOptions{})
}

// transportNDP dresses an in-process NDP as something other than
// *HonestNDP — a transport, to the planner — whose exchange always runs on
// a goroutine during the sweep.
type transportNDP struct{ NDP }

// shape is one of the engine's shapes for a single query, forced on the
// small queries these tests issue: dress wraps the NDP, and stretch
// lengthens the query.
type shape struct {
	name    string
	dress   func(NDP) NDP
	stretch bool
}

// shapes runs a *HonestNDP as it is (a short query: no plan on either
// side, the exchange then the sweep on the caller), stretched past
// inlinePadBytes (a long one: planned, its sweep spread over the workers)
// and dressed as a transport (the exchange on a goroutine during the
// sweep). A double that is not *HonestNDP runs the transport shape in
// every shape.
var shapes = []shape{
	{"inline", func(n NDP) NDP { return n }, false},
	{"overlapped", func(n NDP) NDP { return n }, true},
	{"walk", func(n NDP) NDP { return transportNDP{n} }, false},
}

// args returns the query the shape runs: as given, or for a stretching
// shape padded with zero-weight references to its own rows until the pad
// walk covers inlinePadBytes. Zero weights leave every sum, tag sum and
// so the result unchanged.
func (s shape) args(tab *Table, idx []int, w []uint64) ([]int, []uint64) {
	n := (inlinePadBytes + tab.geo.Params.RowBytes() - 1) / tab.geo.Params.RowBytes()
	if !s.stretch || len(idx) == 0 || len(idx) >= n {
		return idx, w
	}
	sidx, sw := slices.Clone(idx), append(slices.Clone(w), make([]uint64, n-len(w))...)
	for len(sidx) < n {
		sidx = append(sidx, idx[len(sidx)%len(idx)])
	}
	return sidx, sw
}

// query runs QueryCtx over ndp in the shape; only a *HonestNDP's query is
// stretched.
func (s shape) query(ctx context.Context, tab *Table, ndp NDP, idx []int, w []uint64, opts QueryOptions) ([]uint64, error) {
	if _, inProcess := ndp.(*HonestNDP); inProcess {
		idx, w = s.args(tab, idx, w)
		if s.stretch && len(idx) > 0 && !tab.overlapped(len(idx)) {
			panic("shape: stretched query still runs inline")
		}
	}
	return tab.QueryCtx(ctx, s.dress(ndp), idx, w, opts)
}

// TestPlannerBoundaryEquivalence: for row counts straddling inlinePadBytes
// (512 rows of 256 B) and the ctxCheckStride chunking, every tag placement,
// one worker and four, every shape, QueryCtx equals referenceQuery byte for
// byte, verified and unverified.
func TestPlannerBoundaryEquivalence(t *testing.T) {
	placements := map[string]memory.TagPlacement{
		"none": memory.TagNone, "coloc": memory.TagColoc, "sep": memory.TagSep, "ecc": memory.TagECC,
	}
	for name, pl := range placements {
		t.Run(name, func(t *testing.T) {
			// 64 columns of 32 bits: 256 B rows. Elements < 2^8 and weights
			// <= 4 keep 2 048-row sums under 2^32, as verification requires.
			s := newTestScheme(t)
			mem := memory.NewSpace()
			geo := mkGeometry(pl, 300, 64, 32)
			rng := rand.New(rand.NewSource(80))
			tab, err := s.EncryptTable(mem, geo, 1, boundedRows(rng, 300, 64, 1<<8))
			if err != nil {
				t.Fatal(err)
			}
			honest := &HonestNDP{Mem: mem}
			for _, n := range []int{1, 63, 64, 65, 511, 512, 513, 2048} {
				idx := make([]int, n)
				w := make([]uint64, n)
				for k := range idx {
					idx[k] = rng.Intn(300)
					w[k] = 1 + rng.Uint64()%4
				}
				if got, want := tab.overlapped(n), n >= 512; got != want {
					t.Fatalf("%d rows: planner overlapped=%v, want %v", n, got, want)
				}
				for _, verify := range []bool{false, true} {
					if verify && pl == memory.TagNone {
						continue
					}
					want, err := referenceQuery(tab, honest, idx, w, verify)
					if err != nil {
						t.Fatalf("%d rows verify=%v: reference: %v", n, verify, err)
					}
					for _, shape := range shapes {
						for _, workers := range []int{1, 4} {
							got, err := shape.query(context.Background(), tab, honest, idx, w,
								QueryOptions{Workers: workers, Verify: verify})
							if err != nil {
								t.Fatalf("%d rows verify=%v %s workers=%d: %v", n, verify, shape.name, workers, err)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%d rows verify=%v %s workers=%d: engine diverges from reference", n, verify, shape.name, workers)
							}
						}
					}
				}
			}
		})
	}
}

// boundaryBatch is a Local batch of 8 requests over exactly the given
// distinct rows, dealt out in order, each request repeating its first row
// and borrowing its predecessor's last: in-request and cross-request
// duplicates that leave the distinct count unchanged.
func boundaryBatch(rng *rand.Rand, rows []int) []BatchRequest {
	const n = 8
	reqs := make([]BatchRequest, n)
	chunk := (len(rows) + n - 1) / n
	for r := range reqs {
		idx := slices.Clone(rows[r*chunk : min((r+1)*chunk, len(rows))])
		idx = append(idx, idx[0])
		if r > 0 {
			idx = append(idx, rows[r*chunk-1])
		}
		w := make([]uint64, len(idx))
		for k := range w {
			w[k] = 1 + rng.Uint64()%4
		}
		reqs[r] = BatchRequest{Idx: idx, Weights: w}
	}
	return reqs
}

// TestBatchPlannerBoundaryEquivalence: QueryBatchCtx over the in-process
// NDP plans its shape on the batch's distinct rows, as QueryCtx plans on
// its rows — inline below inlinePadBytes (512 rows of 256 B), overlapped
// from there — and both shapes equal per-request referenceQuery byte for
// byte for every tag placement, verified and unverified, one worker and
// four. The inputs straddle the threshold (511, 512, 513 distinct rows),
// and 2 048 references over 300 rows run inline although as one query
// they would overlap. On both shapes a tampered row fails exactly the
// requests that read it, a context cancelled beforehand fails every
// request with ctx.Err(), and a traced walk records its ndp, pad and
// verify spans and phases: on the inline shape the exchange ends before
// the sweep starts, on the overlapped one it ends after the sweep does.
func TestBatchPlannerBoundaryEquivalence(t *testing.T) {
	const numRows = 600
	placements := map[string]memory.TagPlacement{
		"none": memory.TagNone, "coloc": memory.TagColoc, "sep": memory.TagSep, "ecc": memory.TagECC,
	}
	for name, pl := range placements {
		t.Run(name, func(t *testing.T) {
			// 64 columns of 32 bits: 256 B rows; small elements and
			// weights keep every sum under 2^32.
			s := newTestScheme(t)
			mem := memory.NewSpace()
			geo := mkGeometry(pl, numRows, 64, 32)
			rng := rand.New(rand.NewSource(90))
			tab, err := s.EncryptTable(mem, geo, 1, boundedRows(rng, numRows, 64, 1<<8))
			if err != nil {
				t.Fatal(err)
			}
			honest := &HonestNDP{Mem: mem}
			inputs := map[string][]BatchRequest{}
			for _, n := range []int{511, 512, 513} {
				inputs[fmt.Sprintf("%d distinct", n)] = boundaryBatch(rng, rng.Perm(numRows)[:n])
			}
			refs := make([]int, 2048)
			for k := range refs {
				refs[k] = rng.Intn(300)
			}
			wide := boundaryBatch(rng, refs)
			inputs["2048 refs"] = wide
			for in, reqs := range inputs {
				distinct := map[int]bool{}
				for _, r := range reqs {
					for _, i := range r.Idx {
						distinct[i] = true
					}
				}
				overlap := len(distinct) >= 512
				if got := tab.overlapped(len(distinct)); got != overlap {
					t.Fatalf("%s: planner overlapped=%v, want %v", in, got, overlap)
				}
				for _, verify := range []bool{false, true} {
					if verify && pl == memory.TagNone {
						continue
					}
					want := make([][]uint64, len(reqs))
					for r := range reqs {
						if want[r], err = referenceQuery(tab, honest, reqs[r].Idx, reqs[r].Weights, verify); err != nil {
							t.Fatalf("%s verify=%v: reference %d: %v", in, verify, r, err)
						}
					}
					for _, workers := range []int{1, 4} {
						var stats BatchStats
						opts := QueryOptions{Workers: workers, Verify: verify, Stats: &stats}
						for r, res := range tab.QueryBatchCtx(context.Background(), honest, reqs, opts) {
							if res.Err != nil || !slices.Equal(res.Res, want[r]) {
								t.Fatalf("%s verify=%v workers=%d: request %d diverges from reference (err %v)", in, verify, workers, r, res.Err)
							}
						}
						if stats.DistinctRows != len(distinct) {
							t.Fatalf("%s: planned %d distinct rows, want %d", in, stats.DistinctRows, len(distinct))
						}
					}
				}
				if pl == memory.TagNone {
					continue
				}
				opts := QueryOptions{Verify: true}
				checkBatchShapeSpans(t, tab, honest, reqs, overlap, in)

				// Tamper with a row of request 3 that no other request reads.
				row := reqs[3].Idx[1]
				mem.FlipBit(geo.Layout.RowAddr(row), 2)
				for r, res := range tab.QueryBatchCtx(context.Background(), honest, reqs, opts) {
					reads := slices.Contains(reqs[r].Idx, row)
					if reads && !errors.Is(res.Err, ErrVerification) {
						t.Fatalf("%s: request %d reads tampered row %d: got %v, want ErrVerification", in, r, row, res.Err)
					}
					if !reads && res.Err != nil {
						t.Fatalf("%s: request %d does not read tampered row %d: %v", in, r, row, res.Err)
					}
				}
				mem.FlipBit(geo.Layout.RowAddr(row), 2)

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				for r, res := range tab.QueryBatchCtx(ctx, honest, reqs, opts) {
					if !errors.Is(res.Err, context.Canceled) || res.Res != nil {
						t.Fatalf("%s: request %d under a cancelled context: got %v", in, r, res.Err)
					}
				}
			}
		})
	}
}

// checkBatchShapeSpans runs one traced, timed, verified batch and checks
// it recorded the ndp, pad and verify spans and the NDP and Pad phases,
// in the order of the planned shape: the exchange ends before the sweep
// starts when inline, and after the sweep ends when overlapped.
func checkBatchShapeSpans(t *testing.T, tab *Table, ndp NDP, reqs []BatchRequest, overlap bool, in string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ctx, root := reg.StartSpan(context.Background(), "query_batch")
	var ph PhaseTimes
	for r, res := range tab.QueryBatchCtx(ctx, ndp, reqs, QueryOptions{Verify: true, Phases: &ph}) {
		if res.Err != nil {
			t.Fatalf("%s: traced request %d: %v", in, r, res.Err)
		}
	}
	root.End()
	tree, ok := reg.TraceTree(root.Trace())
	if !ok {
		t.Fatalf("%s: trace not recorded", in)
	}
	spans := map[string]telemetry.TraceSpan{}
	for _, sp := range tree.Spans {
		if sp.Parent == root.ID() {
			spans[sp.Op] = sp
		}
	}
	for _, op := range []string{"ndp", "pad", "verify"} {
		if _, ok := spans[op]; !ok {
			t.Fatalf("%s: no %s span under the root (overlapped=%v)", in, op, overlap)
		}
	}
	if ph.NDP <= 0 || ph.Pad <= 0 {
		t.Fatalf("%s: phases NDP=%v Pad=%v, want both set", in, ph.NDP, ph.Pad)
	}
	nd, pad := spans["ndp"], spans["pad"]
	ndpEnd, padEnd := nd.Start.Add(nd.Dur), pad.Start.Add(pad.Dur)
	if inline := !ndpEnd.After(pad.Start); !overlap && !inline {
		t.Fatalf("%s: inline shape, but the exchange ended after the sweep began", in)
	}
	if overlap && ndpEnd.Before(padEnd) {
		t.Fatalf("%s: overlapped shape, but the exchange ended before the sweep", in)
	}
}

// replayNDP answers every query with the honest answer to a different one —
// a replayed (C_res, C_Tres) pair that was valid for another index set.
type replayNDP struct {
	HonestNDP
	idx []int
}

func (r *replayNDP) WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error) {
	replayed := make([]BatchRequest, len(reqs))
	for i := range reqs {
		replayed[i] = BatchRequest{Idx: r.idx, Weights: reqs[i].Weights}
	}
	return r.HonestNDP.WeightedTagSumBatch(ctx, geo, replayed, verify)
}

// TestMaliciousNDPRejectedOnEveryShape: corrupting, forging and replaying
// NDP doubles get ErrVerification in every dress, and the honest NDP
// passes in every shape. A double is never *HonestNDP, so the planner runs
// it through the batch walk either way; the in-process shapes meet
// malicious memory under the honest NDP in TestGatherSeesTamper.
func TestMaliciousNDPRejectedOnEveryShape(t *testing.T) {
	tab, honest, _ := hotpathTable(t, memory.TagSep, 64, 32, 32, 81)
	idx := []int{3, 9, 27, 9}
	w := []uint64{2, 1, 5, 3}
	doubles := map[string]NDP{
		"honest":         honest,
		"corrupt result": &maliciousNDP{HonestNDP: *honest, flipResult: true},
		"forged tag":     &maliciousNDP{HonestNDP: *honest, flipTag: true},
		"both":           &maliciousNDP{HonestNDP: *honest, flipResult: true, flipTag: true},
		"replay":         &replayNDP{HonestNDP: *honest, idx: []int{4, 10, 28, 10}},
	}
	for name, ndp := range doubles {
		for _, shape := range shapes {
			for _, workers := range []int{1, 4} {
				_, err := shape.query(context.Background(), tab, ndp, idx, w, QueryOptions{Workers: workers, Verify: true})
				if name == "honest" {
					if err != nil {
						t.Errorf("honest NDP, %s, workers=%d: rejected: %v", shape.name, workers, err)
					}
				} else if !errors.Is(err, ErrVerification) {
					t.Errorf("%s, %s, workers=%d: got %v, want ErrVerification", name, shape.name, workers, err)
				}
			}
		}
	}
}

// cancellingNDP is a slow NDP whose caller gives up mid-exchange: it
// cancels the query's context from inside WeightedTagSumBatch, then
// answers.
type cancellingNDP struct {
	HonestNDP
	cancel context.CancelFunc
}

func (c *cancellingNDP) WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error) {
	c.cancel()
	return c.HonestNDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// TestQueryCtxCancellationEveryShape: a context cancelled before the call,
// and one cancelled from inside the NDP, come back as ctx.Err() from every
// shape, and the one cancelled before the call reads no row: every gather
// checks the context before its first row.
// (TestQueryVerifiedSteadyStateAllocs checks the abandoned queries return
// their pooled scratch.)
func TestQueryCtxCancellationEveryShape(t *testing.T) {
	tab, honest, _ := hotpathTable(t, memory.TagSep, 256, 64, 32, 82)
	rng := rand.New(rand.NewSource(83))
	idx := make([]int, 128)
	w := make([]uint64, 128)
	for k := range idx {
		idx[k] = rng.Intn(256)
		w[k] = 1 + rng.Uint64()%8
	}
	for _, shape := range shapes {
		for _, workers := range []int{1, 4} {
			opts := QueryOptions{Workers: workers, Verify: true}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			honest.Mem.ResetStats()
			if _, err := shape.query(ctx, tab, honest, idx, w, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, workers=%d, pre-cancelled context: got %v", shape.name, workers, err)
			}
			if st := honest.Mem.Stats(); st.BytesRead != 0 {
				t.Errorf("%s, workers=%d, pre-cancelled context: the NDP read %d bytes", shape.name, workers, st.BytesRead)
			}
			ctx, cancel = context.WithCancel(context.Background())
			slow := &cancellingNDP{HonestNDP: *honest, cancel: cancel}
			if _, err := shape.query(ctx, tab, slow, idx, w, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, workers=%d, context cancelled inside the NDP: got %v", shape.name, workers, err)
			}
		}
	}
}
