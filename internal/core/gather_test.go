package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"secndp/internal/field"
	"secndp/internal/memory"
)

// This file pins HonestNDP's gather (resolve → prefetch → accumulate over
// zero-copy page spans) to copyNDP, which reads every row and tag with a
// locking, allocating Space.Read and shares no code with it; to the
// plaintext; and to the traffic the energy model is fed.

// copyNDP is the software NDP one row at a time through the space's
// copying reads.
type copyNDP struct{ mem *memory.Space }

func (c copyNDP) WeightedSum(geo Geometry, idx []int, w []uint64) []uint64 {
	r := geo.ringOf()
	acc := make([]uint64, geo.Params.M)
	for k, i := range idx {
		row := r.UnpackElems(geo.Layout.ReadRow(c.mem, i))
		for j, e := range row {
			acc[j] = r.Reduce(acc[j] + w[k]*e)
		}
	}
	return acc
}

func (c copyNDP) WeightedSumElem(geo Geometry, idx, jdx []int, w []uint64) uint64 {
	r := geo.ringOf()
	var acc uint64
	for k, i := range idx {
		row := r.UnpackElems(geo.Layout.ReadRow(c.mem, i))
		acc = r.Reduce(acc + w[k]*row[jdx[k]])
	}
	return acc
}

func (c copyNDP) TagSum(geo Geometry, idx []int, w []uint64) field.Elem {
	sum := field.Zero
	for k, i := range idx {
		sum = field.Add(sum, field.MulUint64(field.FromBytes(geo.Layout.ReadTag(c.mem, i)), w[k]))
	}
	return sum
}

// gatherShapes are the row geometries the gather must get right: rows
// that sit inside a page, rows whose co-located stride (256 + 16 = 272)
// walks them across page boundaries, rows larger than a page, and rows of
// a single AES block.
var gatherShapes = []struct {
	name       string
	m          int
	rows, wide int // rows encrypted; rows the widened geometry claims
}{
	{"256B", 64, 600, 4096},
	{"8KiB", 2048, 24, 200},
	{"16B", 4, 600, 4096},
}

var gatherPlacements = []memory.TagPlacement{memory.TagNone, memory.TagColoc, memory.TagSep, memory.TagECC}

// gatherCounts straddle gatherAhead (7/8/9), one ctxCheckStride chunk and
// several (80, 513).
var gatherCounts = []int{1, 7, 8, 9, 80, 513}

func randQuery(rng *rand.Rand, n, numRows int, maxW uint64) ([]int, []uint64) {
	idx := make([]int, n)
	w := make([]uint64, n)
	for k := range idx {
		idx[k] = rng.Intn(numRows)
		w[k] = 1 + rng.Uint64()%maxW
	}
	return idx, w
}

// TestGatherMatchesCopyPath: on every placement and shape, for every row
// count, the gather's sums equal the copy path's — over the encrypted
// table, and over a widened geometry most of whose rows were never
// written (zeros on allocated and on unallocated pages) — and the query
// built on it decrypts to the plaintext and equals referenceQuery.
func TestGatherMatchesCopyPath(t *testing.T) {
	for _, pl := range gatherPlacements {
		for _, sh := range gatherShapes {
			if pl == memory.TagECC && sh.m*4 < 2*memory.CacheLineBytes {
				continue // a 16-byte row has no room for its tag in the side band
			}
			t.Run(fmt.Sprintf("%v/%s", pl, sh.name), func(t *testing.T) {
				seed := int64(1000*int(pl) + sh.m)
				tab, honest, rows := hotpathTable(t, pl, sh.rows, sh.m, 32, seed)
				rng := rand.New(rand.NewSource(seed + 1))
				geo, ref := tab.geo, copyNDP{honest.Mem}
				wide := geo
				wide.Layout.NumRows = sh.wide
				verify := pl != memory.TagNone
				for _, n := range gatherCounts {
					for _, g := range []Geometry{geo, wide} {
						idx, w := randQuery(rng, n, g.Layout.NumRows, 4)
						if got, want := honest.WeightedSum(g, idx, w), ref.WeightedSum(g, idx, w); !slices.Equal(got, want) {
							t.Fatalf("%d of %d rows: WeightedSum diverges from the copy path", n, g.Layout.NumRows)
						}
						jdx := make([]int, n)
						for k := range jdx {
							jdx[k] = rng.Intn(sh.m)
						}
						if got, err := honest.WeightedSumElem(context.Background(), g, idx, jdx, w); err != nil || got != ref.WeightedSumElem(g, idx, jdx, w) {
							t.Fatalf("%d of %d rows: WeightedSumElem %d (%v), copy path %d", n, g.Layout.NumRows, got, err, ref.WeightedSumElem(g, idx, jdx, w))
						}
						if verify {
							if got, want := honest.TagSum(g, idx, w), ref.TagSum(g, idx, w); !got.Equal(want) {
								t.Fatalf("%d of %d rows: TagSum diverges from the copy path", n, g.Layout.NumRows)
							}
							res, err := honest.WeightedTagSumBatch(context.Background(), g, []BatchRequest{{Idx: idx, Weights: w}}, true)
							if err == nil {
								err = res[0].Err
							}
							if err != nil || !slices.Equal(res[0].Sums, ref.WeightedSum(g, idx, w)) || !res[0].Tag.Equal(ref.TagSum(g, idx, w)) {
								t.Fatalf("%d of %d rows: WeightedTagSum diverges from the copy path (%v)", n, g.Layout.NumRows, err)
							}
						}
					}
					idx, w := randQuery(rng, n, sh.rows, 4)
					want := plainWeightedSum(geo, rows, idx, w)
					got, err := tab.QueryCtx(context.Background(), honest, idx, w, QueryOptions{Verify: verify})
					if err != nil {
						t.Fatalf("%d rows: %v", n, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%d rows: query diverges from the plaintext", n)
					}
					if oracle, err := referenceQuery(tab, honest, idx, w, verify); err != nil || !slices.Equal(oracle, want) {
						t.Fatalf("%d rows: referenceQuery over the gather: %v", n, err)
					}
				}
			})
		}
	}
}

// TestGatherBatchMatchesCopyPath: WeightedTagSumBatch with rows shared
// inside and across sub-requests, sub-request sizes from gatherCounts,
// answers every sub-request as the copy path answers it alone, and
// QueryBatchCtx on top decrypts to the plaintext.
func TestGatherBatchMatchesCopyPath(t *testing.T) {
	for _, pl := range gatherPlacements {
		for _, sh := range gatherShapes[:2] {
			t.Run(fmt.Sprintf("%v/%s", pl, sh.name), func(t *testing.T) {
				seed := int64(2000*int(pl) + sh.m)
				tab, honest, rows := hotpathTable(t, pl, sh.rows, sh.m, 32, seed)
				rng := rand.New(rand.NewSource(seed + 1))
				geo, ref := tab.geo, copyNDP{honest.Mem}
				verify := pl != memory.TagNone
				hot := rng.Perm(sh.rows)[:6]
				var reqs []BatchRequest
				for _, n := range gatherCounts {
					idx, w := randQuery(rng, n, sh.rows, 4)
					for k := 0; k < n; k += 2 {
						idx[k] = hot[rng.Intn(len(hot))] // shared across the batch, repeated within a request
					}
					reqs = append(reqs, BatchRequest{Idx: idx, Weights: w})
				}
				out, err := honest.WeightedTagSumBatch(context.Background(), geo, reqs, verify)
				if err != nil {
					t.Fatal(err)
				}
				for i, req := range reqs {
					if out[i].Err != nil {
						t.Fatalf("sub-request %d: %v", i, out[i].Err)
					}
					if !slices.Equal(out[i].Sums, ref.WeightedSum(geo, req.Idx, req.Weights)) {
						t.Fatalf("sub-request %d (%d rows): sums diverge from the copy path", i, len(req.Idx))
					}
					if verify && !out[i].Tag.Equal(ref.TagSum(geo, req.Idx, req.Weights)) {
						t.Fatalf("sub-request %d (%d rows): tag diverges from the copy path", i, len(req.Idx))
					}
				}
				for i, r := range tab.QueryBatchCtx(context.Background(), honest, reqs, QueryOptions{Verify: verify}) {
					if r.Err != nil {
						t.Fatalf("request %d: %v", i, r.Err)
					}
					if !slices.Equal(r.Res, plainWeightedSum(geo, rows, reqs[i].Idx, reqs[i].Weights)) {
						t.Fatalf("request %d: batch query diverges from the plaintext", i)
					}
				}
			})
		}
	}
}

// TestGatherTrafficInvariant: the traffic counters — the energy model's
// input, and the benchmark's ndp.bytes_gathered_per_op — read what the
// copying gather read: RowBytes per row reference and TagBytes per tag,
// on the data bus or the ECC side band, whether a span or the copy
// fallback served the row. The 80-row Ver-sep query is the sls_local
// shape: 80 × (256 + 16) = 21 760 bytes.
func TestGatherTrafficInvariant(t *testing.T) {
	const n, m, pf = 600, 64, 80
	for _, pl := range gatherPlacements {
		t.Run(pl.String(), func(t *testing.T) {
			tab, honest, _ := hotpathTable(t, pl, n, m, 32, 90)
			rng := rand.New(rand.NewSource(91))
			idx, w := randQuery(rng, pf, n, 4)
			verify := pl != memory.TagNone
			var wantBus, wantECC uint64 = pf * 256, 0
			switch pl {
			case memory.TagColoc, memory.TagSep:
				wantBus += pf * memory.TagBytes
			case memory.TagECC:
				wantECC = pf * memory.TagBytes
			}
			check := func(what string, wantBus, wantECC uint64) {
				t.Helper()
				st := honest.Mem.Stats()
				if st.BytesRead != wantBus || st.ECCReads != wantECC {
					t.Errorf("%s: read %d bus + %d ECC bytes, want %d + %d", what, st.BytesRead, st.ECCReads, wantBus, wantECC)
				}
				honest.Mem.ResetStats()
			}
			honest.Mem.ResetStats()
			if _, err := tab.QueryCtx(context.Background(), honest, idx, w, QueryOptions{Verify: verify}); err != nil {
				t.Fatal(err)
			}
			check("query", wantBus, wantECC)

			// A batch reads each distinct row once, however often it is used.
			reqs := []BatchRequest{{Idx: idx, Weights: w}, {Idx: idx[:40], Weights: w[:40]}}
			distinct := map[int]bool{}
			for _, i := range idx {
				distinct[i] = true
			}
			if err := FirstError(tab.QueryBatchCtx(context.Background(), honest, reqs, QueryOptions{Verify: verify})); err != nil {
				t.Fatal(err)
			}
			d := uint64(len(distinct))
			check("batch", wantBus/pf*d, wantECC/pf*d)

			jdx := make([]int, pf)
			if _, err := honest.WeightedSumElem(context.Background(), tab.geo, idx, jdx, w); err != nil {
				t.Fatal(err)
			}
			check("element query", pf*4, 0)
		})
	}
}

// TestGatherSeesTamper: a bit flipped in, or a stale snapshot replayed
// over, a data line or a tag line of one referenced row — memory the
// gather now reads in place — is rejected by the single query and by the
// batch, on every tagged placement.
func TestGatherSeesTamper(t *testing.T) {
	const n, m, victim = 64, 64, 17
	idx := []int{3, victim, 40, 9, 9, 22, 51, 60, 1, 33}
	w := []uint64{1, 2, 3, 1, 2, 3, 1, 2, 3, 1}
	for _, pl := range []memory.TagPlacement{memory.TagColoc, memory.TagSep, memory.TagECC} {
		lay := mkGeometry(pl, n, m, 32).Layout
		attacks := map[string]func(mem *memory.Space, stale *memory.Space){
			"flip data": func(mem, _ *memory.Space) { mem.FlipBit(lay.RowAddr(victim)+130, 3) },
			"replay data": func(mem, stale *memory.Space) {
				mem.Replay(lay.RowAddr(victim), stale.Snapshot(lay.RowAddr(victim), lay.RowBytes))
			},
			"flip tag": func(mem, _ *memory.Space) {
				if pl == memory.TagECC {
					tag := mem.ReadECC(lay.RowAddr(victim), memory.TagBytes)
					tag[5] ^= 0x10
					mem.TamperECC(lay.RowAddr(victim), tag)
					return
				}
				mem.FlipBit(lay.TagAddr(victim)+5, 4)
			},
			"replay tag": func(mem, stale *memory.Space) {
				if pl == memory.TagECC {
					mem.TamperECC(lay.RowAddr(victim), stale.ReadECC(lay.RowAddr(victim), memory.TagBytes))
					return
				}
				mem.Replay(lay.TagAddr(victim), stale.Snapshot(lay.TagAddr(victim), memory.TagBytes))
			},
		}
		for name, attack := range attacks {
			t.Run(fmt.Sprintf("%v/%s", pl, name), func(t *testing.T) {
				// The table at version 2, and the image an adversary kept of
				// the same rows under version 1.
				s := newTestScheme(t)
				geo := mkGeometry(pl, n, m, 32)
				rows := boundedRows(rand.New(rand.NewSource(92)), n, m, 1<<16)
				stale := memory.NewSpace()
				if _, err := s.EncryptTable(stale, geo, 1, rows); err != nil {
					t.Fatal(err)
				}
				honest := &HonestNDP{Mem: memory.NewSpace()}
				tab, err := s.EncryptTable(honest.Mem, geo, 2, rows)
				if err != nil {
					t.Fatal(err)
				}
				opts := QueryOptions{Verify: true}
				reqs := []BatchRequest{{Idx: idx, Weights: w}, {Idx: []int{5, 6}, Weights: []uint64{1, 1}}}
				if _, err := tab.QueryCtx(context.Background(), honest, idx, w, opts); err != nil {
					t.Fatalf("before the attack: %v", err)
				}
				attack(honest.Mem, stale)
				if _, err := tab.QueryCtx(context.Background(), honest, idx, w, opts); !errors.Is(err, ErrVerification) {
					t.Errorf("single query: got %v, want ErrVerification", err)
				}
				out := tab.QueryBatchCtx(context.Background(), honest, reqs, opts)
				if !errors.Is(out[0].Err, ErrVerification) {
					t.Errorf("batch, request over the victim: got %v, want ErrVerification", out[0].Err)
				}
				if out[1].Err != nil {
					t.Errorf("batch, request clear of the victim: %v", out[1].Err)
				}
			})
		}
	}
}

// shiftNDP is an NDP whose memory side sees one index pushed out of the
// table — what a geometry disagreement or a corrupted request looks like
// from inside the gather.
type shiftNDP struct{ *HonestNDP }

func shifted(idx []int, by int) []int {
	out := slices.Clone(idx)
	out[len(out)/2] += by
	return out
}

func (s shiftNDP) WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error) {
	reqs = slices.Clone(reqs)
	reqs[0].Idx = shifted(reqs[0].Idx, geo.Layout.NumRows)
	return s.HonestNDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// batchPanicNDP answers a batch through the unchecked one-request gather
// (WeightedSum) with its first request's row shifted out of the table, so
// the gather's panic crosses the batch entry point unchecked.
type batchPanicNDP struct{ *HonestNDP }

func (p batchPanicNDP) WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error) {
	p.WeightedSum(geo, shifted(reqs[0].Idx, geo.Layout.NumRows), reqs[0].Weights)
	return nil, nil
}

// TestGatherRowOutOfRange: an index past the table inside the NDP is the
// layout's panic, with its text, out of the gather; the single query and
// the batch recover it into an error naming the range; and the batch NDP
// itself turns a shifted request into that sub-request's error while
// answering the rest. Every panic leaves the gather through its deferred
// View.Close, so the memory's read lock is free afterwards.
func TestGatherRowOutOfRange(t *testing.T) {
	tab, honest, _ := hotpathTable(t, memory.TagSep, 64, 64, 32, 93)
	rng := rand.New(rand.NewSource(94))
	idx, w := randQuery(rng, 20, 64, 4)
	const text = "out of range [0,64)"

	ctx, cols := context.Background(), make([]int, len(idx))
	for name, call := range map[string]func(){
		"WeightedSum":     func() { honest.WeightedSum(tab.geo, shifted(idx, 64), w) },
		"TagSum":          func() { honest.TagSum(tab.geo, shifted(idx, 64), w) },
		"gatherOne":       func() { honest.gatherOne(ctx, tab.geo, shifted(idx, 64), w, make([]uint64, 64), true) },
		"WeightedSumElem": func() { honest.WeightedSumElem(ctx, tab.geo, shifted(idx, 64), cols, w) },
		"negative":        func() { honest.WeightedSum(tab.geo, shifted(idx, -100), w) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "memory: row") {
					t.Errorf("%s: recovered %v, want the layout's row-range panic", name, r)
				}
			}()
			call()
		}()
	}

	opts := QueryOptions{Verify: true}
	if _, err := tab.QueryCtx(context.Background(), batchPanicNDP{honest}, idx, w, opts); err == nil || !strings.Contains(err.Error(), text) {
		t.Errorf("single query: got %v, want an error naming the range", err)
	}
	if _, err := tab.QueryCtx(context.Background(), shiftNDP{honest}, idx, w, opts); !errors.Is(err, ErrIndexRange) {
		t.Errorf("single query, shifted request: got %v, want ErrIndexRange", err)
	}
	reqs := []BatchRequest{{Idx: idx, Weights: w}, {Idx: []int{1, 2}, Weights: []uint64{1, 1}}}
	out := tab.QueryBatchCtx(context.Background(), shiftNDP{honest}, reqs, opts)
	if out[0].Err == nil || errors.Is(out[0].Err, ErrVerification) {
		t.Errorf("batch, bad sub-request: got %v, want its range error", out[0].Err)
	}
	if out[1].Err != nil {
		t.Errorf("batch, good sub-request: %v", out[1].Err)
	}
	for i, r := range tab.QueryBatchCtx(context.Background(), batchPanicNDP{honest}, reqs, opts) {
		if r.Err == nil || !strings.Contains(r.Err.Error(), text) {
			t.Errorf("batch over a panicking NDP, request %d: got %v, want an error naming the range", i, r.Err)
		}
	}

	wrote := make(chan struct{})
	go func() {
		addr := tab.geo.Layout.RowAddr(0)
		honest.Mem.FlipBit(addr, 0)
		honest.Mem.FlipBit(addr, 0)
		close(wrote)
	}()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("a write still blocks: a panicking gather kept the memory's read lock")
	}
}

// TestGatherCancelled: the batch walk still notices a dead context.
func TestGatherCancelled(t *testing.T) {
	tab, honest, _ := hotpathTable(t, memory.TagSep, 64, 64, 32, 95)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []BatchRequest{{Idx: []int{1, 2, 3}, Weights: []uint64{1, 1, 1}}}
	if _, err := honest.WeightedTagSumBatch(ctx, tab.geo, reqs, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
