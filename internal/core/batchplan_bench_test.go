package core

import (
	"context"
	"math/rand"
	"testing"

	"secndp/internal/memory"
)

// benchBatch builds the reference batched workload: 64 sub-requests of 8
// rows, with every other row reference drawn from a shared hot set (~50%
// cross-request duplication) — the DLRM-style shape the coalesced
// pipeline targets.
func benchBatch(tb testing.TB, numRows int) (*Table, *HonestNDP, []BatchRequest) {
	tb.Helper()
	scheme, err := NewScheme(testKey)
	if err != nil {
		tb.Fatal(err)
	}
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, numRows, 64, 32)
	rng := rand.New(rand.NewSource(9))
	rows := boundedRows(rng, numRows, 64, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		tb.Fatal(err)
	}
	hot := make([]int, 64)
	for k := range hot {
		hot[k] = rng.Intn(numRows)
	}
	reqs := make([]BatchRequest, 64)
	for i := range reqs {
		idx := make([]int, 8)
		w := make([]uint64, 8)
		for k := range idx {
			if k%2 == 0 {
				idx[k] = hot[rng.Intn(len(hot))]
			} else {
				idx[k] = (i*8 + k) % numRows
			}
			w[k] = 1 + rng.Uint64()%16
		}
		reqs[i] = BatchRequest{Idx: idx, Weights: w}
	}
	return tab, &HonestNDP{Mem: mem}, reqs
}

func BenchmarkQueryBatchPipelined(b *testing.B) {
	tab, ndp, reqs := benchBatch(b, 4096)
	opts := QueryOptions{Verify: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tab.QueryBatchCtx(context.Background(), ndp, reqs, opts)
		if err := FirstError(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatchFanout is the batch's per-request baseline: the same
// requests as one QueryCtx call each.
func BenchmarkQueryBatchFanout(b *testing.B) {
	tab, ndp, reqs := benchBatch(b, 4096)
	opts := QueryOptions{Verify: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := tab.QueryCtx(context.Background(), ndp, req.Idx, req.Weights, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
