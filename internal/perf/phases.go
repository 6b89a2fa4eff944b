package perf

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"secndp"
	"secndp/internal/telemetry"
)

// PhaseStat aggregates one query phase across the breakdown stage: how
// many queries exercised the phase and its elapsed-time statistics, read
// from the registry's per-phase histograms.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalNs uint64  `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// PhaseReport is the per-phase query breakdown emitted into the
// regression JSON: a small scripted workload — repeated local queries,
// remote queries over a loopback NDP server, one degraded query after the
// server dies — summarized phase by phase from one telemetry snapshot.
type PhaseReport struct {
	Queries           uint64      `json:"queries"`
	Verified          uint64      `json:"verified"`
	Degraded          uint64      `json:"degraded"`
	TransportAttempts uint64      `json:"transport_attempts"`
	TransportRetries  uint64      `json:"transport_retries"`
	BatchPipelined    uint64      `json:"batch_pipelined"`
	BatchSubRequests  uint64      `json:"batch_sub_requests"`
	BatchRowRefs      uint64      `json:"batch_row_refs"`
	BatchDistinctRows uint64      `json:"batch_distinct_rows"`
	BatchWireOps      uint64      `json:"batch_wire_ops"`
	Phases            []PhaseStat `json:"phases"`
}

func counterVal(s telemetry.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// phaseStage drives the scripted workload through the facade with the
// given registry attached and distills the snapshot into a PhaseReport.
// The workload covers every phase: pad/NDP/tag/verify on the happy path,
// transport attempts over a real loopback server, and one fallback after
// the server is closed.
func phaseStage(quick bool, reg *telemetry.Registry) (*PhaseReport, error) {
	rows, batch := 1024, 128
	if quick {
		rows, batch = 128, 32
	}
	const cols = 64
	ctx := context.Background()

	eng, err := secndp.New([]byte(benchKey),
		secndp.WithTelemetry(reg),
		secndp.WithFallback(1))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	data := make([][]uint64, rows)
	for i := range data {
		data[i] = make([]uint64, cols)
		for j := range data[i] {
			data[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	idx := make([]int, batch)
	weights := make([]uint64, batch)
	for k := range idx {
		idx[k] = rng.Intn(rows)
		weights[k] = 1 + rng.Uint64()%16
	}
	req := secndp.Request{Idx: idx, Weights: weights}

	// Local table: the in-process happy path.
	local, err := eng.CreateTable(ctx, secndp.LocalBackend(secndp.NewMemory()), secndp.TableSpec{
		Name: "perf-phases-local", Rows: rows, Cols: cols,
	}, data)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	for i := 0; i < 4; i++ {
		if _, err := local.Query(ctx, req); err != nil {
			return nil, fmt.Errorf("perf: local query: %w", err)
		}
	}

	// Remote table: a real loopback NDP server behind the fault-tolerant
	// transport, so the NDP phase includes the wire and the transport
	// counters move.
	srv := secndp.NewServer(secndp.NewMemory())
	srv.Instrument(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rc, err := secndp.DialReliableNDP(ctx, addr, secndp.TransportConfig{
		Retry: secndp.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	remoteTab, err := eng.CreateTable(ctx, secndp.RemoteBackend(rc), secndp.TableSpec{
		Name: "perf-phases-remote", Rows: rows, Cols: cols,
	}, data)
	if err != nil {
		return nil, err
	}
	defer remoteTab.Close()
	for i := 0; i < 2; i++ {
		if _, err := remoteTab.Query(ctx, req); err != nil {
			return nil, fmt.Errorf("perf: remote query: %w", err)
		}
	}

	// Batched queries over both tables: a duplicate-heavy batch exercises
	// the coalesced pipeline (one wire exchange, cross-request pad dedup,
	// aggregated verification) and moves the secndp_batch_* series.
	breqs := make([]secndp.Request, 8)
	for i := range breqs {
		bidx := make([]int, 4)
		bw := make([]uint64, 4)
		for k := range bidx {
			bidx[k] = rng.Intn(8) // hot rows shared across the batch
			bw[k] = 1 + rng.Uint64()%16
		}
		breqs[i] = secndp.Request{Idx: bidx, Weights: bw}
	}
	if _, err := local.QueryBatch(ctx, breqs); err != nil {
		return nil, fmt.Errorf("perf: local batch: %w", err)
	}
	if _, err := remoteTab.QueryBatch(ctx, breqs); err != nil {
		return nil, fmt.Errorf("perf: remote batch: %w", err)
	}

	// Cluster table: a 2-shard loopback cluster registers the live
	// /debug/cluster inspection source on the registry and runs traced
	// queries whose trees carry per-shard sub-op spans — so a scrape
	// during the run can walk /debug/cluster and /debug/trace/{id}
	// against real state. Single queries only: cluster batches split
	// wire ops per shard, which would skew the batch coalescing counters
	// reported above.
	csrvs := make([]*secndp.Server, 2)
	cspecs := make([]secndp.ShardSpec, len(csrvs))
	for i := range csrvs {
		csrvs[i] = secndp.NewServer(secndp.NewMemory())
		caddr, err := csrvs[i].Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer csrvs[i].Close()
		cspecs[i] = secndp.ShardSpec{Addr: caddr}
	}
	clusterTab, err := eng.CreateTable(ctx, secndp.ClusterBackend(cspecs...), secndp.TableSpec{
		Name: "perf-phases-cluster", Rows: rows, Cols: cols,
	}, data)
	if err != nil {
		return nil, err
	}
	defer clusterTab.Close()
	for i := 0; i < 2; i++ {
		if _, err := clusterTab.Query(ctx, req); err != nil {
			return nil, fmt.Errorf("perf: cluster query: %w", err)
		}
	}

	// Kill the server and query once more: retries exhaust, the circuit
	// settles, and the TEE mirror serves the degraded result.
	srv.Close()
	res, err := remoteTab.Query(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("perf: degraded query: %w", err)
	}
	if !res.Degraded {
		return nil, fmt.Errorf("perf: expected degraded result after server close")
	}

	snap := reg.Snapshot()
	pr := &PhaseReport{
		Queries:           counterVal(snap, "secndp_queries_total"),
		Verified:          counterVal(snap, "secndp_queries_verified_total"),
		Degraded:          counterVal(snap, "secndp_queries_degraded_total"),
		TransportAttempts: counterVal(snap, "secndp_transport_attempts_total"),
		TransportRetries:  counterVal(snap, "secndp_transport_retries_total"),
		BatchPipelined:    counterVal(snap, "secndp_batch_pipelined_total"),
		BatchSubRequests:  counterVal(snap, "secndp_batch_subrequests_total"),
		BatchRowRefs:      counterVal(snap, "secndp_batch_rowrefs_total"),
		BatchDistinctRows: counterVal(snap, "secndp_batch_distinct_rows_total"),
		BatchWireOps:      counterVal(snap, "secndp_batch_wire_ops_total"),
	}
	for p := 0; p < telemetry.NumPhases; p++ {
		name := telemetry.Phase(p).String()
		for _, h := range snap.Histograms {
			if h.Name != "secndp_phase_"+name+"_seconds" || h.Count == 0 {
				continue
			}
			st := PhaseStat{Phase: name, Count: h.Count, TotalNs: h.SumNs}
			st.MeanNs = float64(h.SumNs) / float64(h.Count)
			pr.Phases = append(pr.Phases, st)
		}
	}
	return pr, nil
}

// publishResult mirrors one microbenchmark measurement onto the registry
// as gauges, so `/metrics` and the -perf JSON report from one source.
func publishResult(reg *telemetry.Registry, res Result) {
	base := "secndp_perf_" + strings.NewReplacer("/", "_", "-", "_").Replace(res.Name)
	reg.Gauge(base+"_ns_per_op", "Perf suite: ns/op of "+res.Name+".").Set(int64(res.NsPerOp))
	reg.Gauge(base+"_allocs_per_op", "Perf suite: allocs/op of "+res.Name+".").Set(res.AllocsPerOp)
}
