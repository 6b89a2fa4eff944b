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
)

// This file holds the engine's test-only serial reference and the tests
// that pin QueryCtx's two shapes (inline, overlapped) to it.

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
// the engine against: Algorithms 4 and 5 built from per-row padRow, per-row
// Generator.TagPad and checksumRowNaive. It shares no kernel with otpWalk,
// tagDot or resultChecksum.
func referenceQuery(tab *Table, ndp NDP, idx []int, w []uint64, verify bool) ([]uint64, error) {
	if err := tab.checkQuery(idx, w); err != nil {
		return nil, err
	}
	cres, ctag, err := ndp.WeightedTagSum(context.Background(), tab.geo, idx, w, verify)
	if err != nil {
		return nil, err
	}
	if len(cres) != tab.geo.Params.M {
		return nil, fmt.Errorf("reference: ndp returned %d columns", len(cres))
	}
	res := referencePadSum(tab, idx, w)
	for j := range res {
		res[j] = tab.r.Reduce(res[j] + cres[j])
	}
	if verify {
		mac := field.Add(ctag, referenceTagPadSum(tab, idx, w))
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
// *HonestNDP — a transport, to the planner — which always runs overlapped.
type transportNDP struct{ NDP }

// shapes dresses an in-process NDP so the planner runs each of QueryCtx's
// two shapes on the small queries these tests issue: as it is (inline, for
// a *HonestNDP) and as a transport (overlapped).
var shapes = []struct {
	name  string
	dress func(NDP) NDP
}{
	{"inline", func(n NDP) NDP { return n }},
	{"overlapped", func(n NDP) NDP { return transportNDP{n} }},
}

// TestPlannerBoundaryEquivalence: for row counts straddling inlinePadBytes
// (512 rows of 256 B) and the ctxCheckStride chunking, every tag placement,
// one worker and four, in-process and transport NDP, QueryCtx equals
// referenceQuery byte for byte, verified and unverified.
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
				if got, want := tab.overlapped(honest, n), n >= 512; got != want {
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
						ndp := shape.dress(honest)
						for _, workers := range []int{1, 4} {
							got, err := tab.QueryCtx(context.Background(), ndp, idx, w,
								QueryOptions{Workers: workers, Verify: verify})
							if err != nil {
								t.Fatalf("%d rows verify=%v %T workers=%d: %v", n, verify, ndp, workers, err)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%d rows verify=%v %T workers=%d: engine diverges from reference", n, verify, ndp, workers)
							}
						}
					}
				}
			}
		})
	}
}

// replayNDP answers every query with the honest answer to a different one —
// a replayed (C_res, C_Tres) pair that was valid for another index set.
type replayNDP struct {
	HonestNDP
	idx []int
}

func (r *replayNDP) WeightedTagSum(ctx context.Context, geo Geometry, _ []int, w []uint64, verify bool) ([]uint64, field.Elem, error) {
	return r.HonestNDP.WeightedTagSum(ctx, geo, r.idx, w, verify)
}

// TestMaliciousNDPRejectedOnBothShapes: corrupting, forging and replaying
// NDP doubles get ErrVerification in either dress, and the honest NDP
// passes in both shapes. A double is never *HonestNDP, so the planner runs
// it overlapped either way; the inline shape meets malicious memory under
// the honest NDP in TestGatherSeesTamper.
func TestMaliciousNDPRejectedOnBothShapes(t *testing.T) {
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
				_, err := tab.QueryCtx(context.Background(), shape.dress(ndp), idx, w, QueryOptions{Workers: workers, Verify: true})
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
// cancels the query's context from inside WeightedTagSum, then answers.
type cancellingNDP struct {
	HonestNDP
	cancel context.CancelFunc
}

func (c *cancellingNDP) WeightedTagSum(ctx context.Context, geo Geometry, idx []int, w []uint64, verify bool) ([]uint64, field.Elem, error) {
	c.cancel()
	return c.HonestNDP.WeightedTagSum(ctx, geo, idx, w, verify)
}

// TestQueryCtxCancellationBothShapes: a context cancelled before the call,
// and one cancelled from inside the NDP, come back as ctx.Err() from both
// shapes, and the one cancelled before the call reads no row: the inline
// verified gather checks the context before its first row.
// (TestQueryVerifiedSteadyStateAllocs checks the abandoned queries return
// their pooled scratch.)
func TestQueryCtxCancellationBothShapes(t *testing.T) {
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
			if _, err := tab.QueryCtx(ctx, shape.dress(honest), idx, w, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, workers=%d, pre-cancelled context: got %v", shape.name, workers, err)
			}
			if st := honest.Mem.Stats(); st.BytesRead != 0 {
				t.Errorf("%s, workers=%d, pre-cancelled context: the NDP read %d bytes", shape.name, workers, st.BytesRead)
			}
			ctx, cancel = context.WithCancel(context.Background())
			slow := &cancellingNDP{HonestNDP: *honest, cancel: cancel}
			if _, err := tab.QueryCtx(ctx, shape.dress(slow), idx, w, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, workers=%d, context cancelled inside the NDP: got %v", shape.name, workers, err)
			}
		}
	}
}
