package perf

import (
	"math/rand"
	"testing"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// The software NDP's gather, timed where its rows are not in cache and
// where they are. One operation is one row of an sls_local-shaped query —
// HonestNDP.WeightedSum then TagSum over 80 uniformly random 256-byte rows
// of a Ver-sep table — so ns/op reads as ns/row. ndp/gather_cold draws
// from 16 MiB of rows (every row a cache miss, and its tag line another);
// ndp/gather_warm runs the identical loop over 256 KiB. Their ratio,
// Report.Gather.ColdOverWarm, says whether the gather overlaps its misses
// or waits out each one: it survives a change of runner, and CI and
// `make gather-check` bound it.
const (
	gatherRowsPerQuery = 80
	gatherCols         = 64 // × 32 bits = 256-byte rows
	gatherColdRows     = 16 << 20 / (gatherCols * 4)
	gatherWarmRows     = 256 << 10 / (gatherCols * 4)
)

// GatherReport is the cold/warm reading of the NDP gather.
type GatherReport struct {
	ColdNsPerRow float64 `json:"cold_ns_per_row"`
	WarmNsPerRow float64 `json:"warm_ns_per_row"`
	ColdOverWarm float64 `json:"cold_over_warm"`
}

// gatherBench times the gather over a numRows-row table. The NDP sees
// only ciphertext, so the table is random bytes written straight into the
// untrusted memory.
func gatherBench(numRows int) testing.BenchmarkResult {
	const rowBytes = gatherCols * 4
	geo := core.Geometry{
		Params: core.Params{M: gatherCols, We: 32},
		Layout: memory.Layout{
			Placement: memory.TagSep,
			TagBase:   uint64(numRows*rowBytes) + 1<<20,
			NumRows:   numRows,
			RowBytes:  rowBytes,
		},
	}
	mem := memory.NewSpace()
	rng := rand.New(rand.NewSource(24))
	fill := make([]byte, numRows*rowBytes)
	rng.Read(fill)
	mem.Write(geo.Layout.Base, fill)
	mem.Write(geo.Layout.TagBase, fill[:numRows*memory.TagBytes])
	ndp := &core.HonestNDP{Mem: mem}
	idx := make([]int, gatherRowsPerQuery)
	weights := make([]uint64, gatherRowsPerQuery)
	for k := range weights {
		weights[k] = 1 + rng.Uint64()%16
	}
	return testing.Benchmark(func(b *testing.B) {
		b.SetBytes(rowBytes + memory.TagBytes)
		for done := 0; done < b.N; done += gatherRowsPerQuery {
			for k := range idx {
				idx[k] = rng.Intn(numRows)
			}
			ndp.WeightedSum(geo, idx, weights)
			ndp.TagSum(geo, idx, weights)
		}
	})
}

func gatherBenches() []func() (string, testing.BenchmarkResult) {
	return []func() (string, testing.BenchmarkResult){
		func() (string, testing.BenchmarkResult) { return "ndp/gather_cold", gatherBench(gatherColdRows) },
		func() (string, testing.BenchmarkResult) { return "ndp/gather_warm", gatherBench(gatherWarmRows) },
	}
}

// gatherReport derives the cold/warm reading from a finished suite's
// results; nil if either row is missing.
func gatherReport(results []Result) *GatherReport {
	var g GatherReport
	for _, r := range results {
		switch r.Name {
		case "ndp/gather_cold":
			g.ColdNsPerRow = r.NsPerOp
		case "ndp/gather_warm":
			g.WarmNsPerRow = r.NsPerOp
		}
	}
	if g.ColdNsPerRow == 0 || g.WarmNsPerRow == 0 {
		return nil
	}
	g.ColdOverWarm = g.ColdNsPerRow / g.WarmNsPerRow
	return &g
}
