// Package perf is the benchmark-regression harness: a fixed suite of
// microbenchmarks over the hot paths — pad generation, the fused OTP
// kernels, full queries, table encryption, and the conventional-TEE
// engine — emitted as machine-readable JSON so successive snapshots
// (BENCH_<date>.json, written by `make bench-json`) can be diffed for
// regressions. The suite reuses the stdlib benchmark runner, so numbers
// are directly comparable to `go test -bench` output.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"secndp"
	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memenc"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/telemetry"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is a full suite run plus the environment it ran in. NumCPU is
// the machine's logical CPU count; GOMAXPROCS is the scheduler limit the
// run actually executed under — the two differ in cgroup-capped CI
// containers, and comparing reports across them is meaningless without
// both recorded.
type Report struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Quick      bool          `json:"quick,omitempty"`
	Results    []Result      `json:"results"`
	Phases     *PhaseReport  `json:"phases,omitempty"`
	Serve      *ServeReport  `json:"serve,omitempty"`
	Gather     *GatherReport `json:"gather,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

const benchKey = "0123456789abcdef"

// suite builds the benchmark list over a shared fixture. Table geometry
// matches the repository's reference workload: 32-bit elements, 64
// columns (256-byte rows), separate tags.
func suite(quick bool) ([]func() (string, testing.BenchmarkResult), error) {
	numRows, batch := 4096, 512
	if quick {
		numRows, batch = 256, 64
	}
	const m, we = 64, 32
	rowBytes := m * we / 8

	gen, err := otp.NewGenerator([]byte(benchKey))
	if err != nil {
		return nil, err
	}
	scheme, err := core.NewScheme([]byte(benchKey))
	if err != nil {
		return nil, err
	}
	mem := memory.NewSpace()
	geo := core.Geometry{
		Params: core.Params{M: m, We: we},
		Layout: memory.Layout{
			Placement: memory.TagSep,
			Base:      0,
			TagBase:   uint64(numRows*rowBytes) + 1<<20,
			NumRows:   numRows,
			RowBytes:  rowBytes,
		},
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]uint64, numRows)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		return nil, err
	}
	ndp := &core.HonestNDP{Mem: mem}
	// The same rows behind the public facade, engine defaults: what a
	// production caller's Table.Query costs over core's QueryCtx.
	eng, err := secndp.New([]byte(benchKey))
	if err != nil {
		return nil, err
	}
	facade, err := eng.CreateTable(context.Background(), secndp.LocalBackend(secndp.NewMemory()),
		secndp.TableSpec{Name: "perf-suite", Rows: numRows, Cols: m, ElemBits: we}, rows)
	if err != nil {
		return nil, err
	}
	idx := make([]int, batch)
	weights := make([]uint64, batch)
	for k := range idx {
		idx[k] = rng.Intn(numRows)
		weights[k] = 1 + rng.Uint64()%16
	}

	// Batch fixtures for the coalesced pipeline: 64 sub-requests of 8 rows
	// each. The dedup-heavy shape draws half of every request's rows from a
	// small hot set shared across the whole batch (~50% shared references);
	// the dedup-free shape gives every request its own row range.
	const batchReqs, rowsPerReq = 64, 8
	hot := make([]int, batchReqs*rowsPerReq/8)
	for k := range hot {
		hot[k] = rng.Intn(numRows)
	}
	mkBatch := func(dedup bool) []core.BatchRequest {
		reqs := make([]core.BatchRequest, batchReqs)
		for i := range reqs {
			ridx := make([]int, rowsPerReq)
			w := make([]uint64, rowsPerReq)
			for k := range ridx {
				if dedup && k%2 == 0 {
					ridx[k] = hot[rng.Intn(len(hot))]
				} else {
					ridx[k] = (i*rowsPerReq + k) % numRows
				}
				w[k] = 1 + rng.Uint64()%16
			}
			reqs[i] = core.BatchRequest{Idx: ridx, Weights: w}
		}
		return reqs
	}
	batchShared, batchDistinct := mkBatch(true), mkBatch(false)
	batchBytes := int64(batchReqs * rowsPerReq * rowBytes)
	batchOpts := core.QueryOptions{Verify: true, Workers: runtime.NumCPU()}

	enc, err := memenc.NewEngine([]byte(benchKey), memory.NewSpace(), memenc.Config{
		MACBase:     1 << 24,
		CounterBase: 1 << 25,
		TreeBase:    1 << 26,
		NumLines:    1024,
	})
	if err != nil {
		return nil, err
	}
	line := make([]byte, memenc.LineBytes)
	rng.Read(line)
	if err := enc.WriteLine(0, line); err != nil {
		return nil, err
	}

	bench := func(name string, bytes int64, fn func(b *testing.B)) func() (string, testing.BenchmarkResult) {
		return func() (string, testing.BenchmarkResult) {
			return name, testing.Benchmark(func(b *testing.B) {
				if bytes > 0 {
					b.SetBytes(bytes)
				}
				fn(b)
			})
		}
	}

	pads := make([]byte, 1024)
	acc := make([]uint64, m)

	// Fused-kernel fixtures: the batch's row addresses, a tag-pad staging
	// buffer, and a field-element vector for the vectorized dot product.
	addrs := make([]uint64, batch)
	for k, i := range idx {
		addrs[k] = geo.Layout.RowAddr(i)
	}
	tagPads := make([]byte, batch*otp.BlockBytes)
	dotElems := make([]field.Elem, batch)
	for k := range dotElems {
		dotElems[k] = field.New(rng.Uint64()&0x7FFFFFFFFFFFFFFF, rng.Uint64())
	}
	benches := []func() (string, testing.BenchmarkResult){
		bench("field/dot_uint64", int64(batch*16), func(b *testing.B) {
			var sink field.Elem
			for i := 0; i < b.N; i++ {
				sink = field.DotUint64(dotElems, weights)
			}
			_ = sink
		}),
		bench("otp/tag_pads", int64(batch*otp.BlockBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen.TagPads(tagPads, addrs, 1)
			}
		}),
		bench("otp/fused_pad_tag_scale_accum", int64(batch*rowBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen.PadTagScaleAccum(acc, we, weights, addrs, 1, tagPads)
			}
		}),
		bench("otp/pads_into_256", 256, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen.PadsInto(pads[:256], otp.DomainData, uint64(i%1024)*256, 1)
			}
		}),
		bench("otp/pads_into_1k", 1024, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen.PadsInto(pads, otp.DomainData, uint64(i%1024)*1024, 1)
			}
		}),
		bench("otp/fused_scale_accum_256", 256, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen.PadScaleAccum(acc, 3, we, otp.DomainData, uint64(i%1024)*256, 1)
			}
		}),
		bench("otp/elem_pad", 0, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += gen.ElemPad(uint64(i%4096)*4, 1, we)
			}
			_ = sink
		}),
		bench("core/otp_weighted_sum_serial", int64(batch*rowBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tab.OTPWeightedSumCtx(context.Background(), idx, weights, core.QueryOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("core/query_verified", int64(batch*rowBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tab.QueryVerified(ndp, idx, weights); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("secndp/query_verified", int64(batch*rowBytes), func(b *testing.B) {
			req := secndp.Request{Idx: idx, Weights: weights}
			for i := 0; i < b.N; i++ {
				if _, err := facade.Query(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("secndp/query_unverified", int64(batch*rowBytes), func(b *testing.B) {
			req := secndp.Request{Idx: idx, Weights: weights, Unverified: true}
			for i := 0; i < b.N; i++ {
				if _, err := facade.Query(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("core/query_verified_traced", int64(batch*rowBytes), func(b *testing.B) {
			// The same verified query through the same engine (QueryVerified
			// is a one-line call into QueryCtx) with hierarchical tracing
			// live: a root span per operation, phase children recorded by
			// QueryCtx, and the trace store absorbing every tree. The
			// bench-smoke gate holds this within 5% of the untraced
			// query_verified bound — tracing must stay cheap enough to
			// leave always-on.
			traceReg := telemetry.NewRegistry()
			opts := core.QueryOptions{Workers: 1, Verify: true}
			for i := 0; i < b.N; i++ {
				ctx, span := traceReg.StartSpan(context.Background(), "bench_query")
				if _, err := tab.QueryCtx(ctx, ndp, idx, weights, opts); err != nil {
					b.Fatal(err)
				}
				span.SetStatus(true, false)
				span.End()
			}
		}),
		bench("telemetry/disabled_record", 0, func(b *testing.B) {
			// The disabled-telemetry contract, measured where CI can gate
			// it: counter, histogram, and span recording through nil
			// receivers must cost one predictable nil check each.
			var c *telemetry.Counter
			var h *telemetry.Histogram
			var s *telemetry.ActiveSpan
			for i := 0; i < b.N; i++ {
				c.Inc()
				h.ObserveNs(uint64(i))
				s.Event("kind", "detail")
				s.End()
			}
		}),
		bench("core/query_batch_verified", batchBytes, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := tab.QueryBatchCtx(context.Background(), ndp, batchShared, batchOpts)
				if err := core.FirstError(out); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("core/query_batch_verified_nodedup", batchBytes, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := tab.QueryBatchCtx(context.Background(), ndp, batchDistinct, batchOpts)
				if err := core.FirstError(out); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("core/query_batch_perreq_baseline", batchBytes, func(b *testing.B) {
			// The same dedup-heavy batch as one QueryCtx call per request:
			// one NDP walk and one verification each. The coalesced
			// pipeline's speedup is this measurement over query_batch_verified.
			for i := 0; i < b.N; i++ {
				for _, req := range batchShared {
					if _, err := tab.QueryCtx(context.Background(), ndp, req.Idx, req.Weights, batchOpts); err != nil {
						b.Fatal(err)
					}
				}
			}
		}),
		bench("core/encrypt_table", int64(numRows*rowBytes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scheme.EncryptTable(memory.NewSpace(), geo, uint64(i+2), rows); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("memenc/write_line", memenc.LineBytes, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := enc.WriteLine(0, line); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("memenc/read_line", memenc.LineBytes, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enc.ReadLine(0); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
	benches = append(benches, gatherBenches()...)
	return append(benches, clusterBenches(quick)...), nil
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// Run executes the suite and assembles the report. quick shrinks the table
// and batch fixtures (CI smoke); measurements still use the stdlib's
// standard ~1s-per-benchmark calibration.
//
// reg receives every measurement as it lands: the phase-breakdown
// workload records its spans and subsystem counters there, and each
// microbenchmark result is mirrored as secndp_perf_* gauges — so a live
// `/metrics` scrape and the emitted JSON report from one source. nil runs
// the suite against a private registry (the Phases breakdown still needs
// one). The phase stage runs first so a scrape during the slower
// microbenchmarks already sees the full query anatomy.
func Run(quick bool, reg *telemetry.Registry) (Report, error) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	benches, err := suite(quick)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	phases, err := phaseStage(quick, reg)
	if err != nil {
		return Report{}, err
	}
	rep.Phases = phases
	srv, err := serveStage(quick, reg)
	if err != nil {
		return Report{}, err
	}
	rep.Serve = srv
	for _, b := range benches {
		name, r := b()
		if r.N == 0 {
			return Report{}, fmt.Errorf("perf: benchmark %s did not run", name)
		}
		res := Result{
			Name:        name,
			NsPerOp:     nsPerOp(r),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		rep.Results = append(rep.Results, res)
		publishResult(reg, res)
	}
	rep.Gather = gatherReport(rep.Results)
	return rep, nil
}
