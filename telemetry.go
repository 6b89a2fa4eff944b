package secndp

import (
	"context"
	"errors"
	"time"

	"secndp/internal/core"
	"secndp/internal/telemetry"
)

// This file is the facade's observability wiring: the re-exported
// telemetry registry, the WithTelemetry option, the per-query phase
// timings surfaced on Result, and the metric recording that makes one
// registry snapshot tell the whole story — transport retries and
// breaker state, OTP engine selection, and per-phase query latency
// histograms. See DESIGN.md §7.

// Telemetry is the unified metrics and tracing registry: lock-free
// counters, gauges, and latency histograms with Prometheus/expvar
// exporters, plus a trace tree per facade operation. Serve its Handler
// (or call WriteProm/Snapshot) to observe a running engine; share one
// registry between the engine (WithTelemetry), the transport
// (ReliableNDP.Instrument, done automatically by CreateTable), and the NDP
// server (Server.Instrument) for a single coherent snapshot.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry attaches a metrics + tracing registry to the engine:
// every query records per-phase latency histograms, every operation
// (query, batch, create_table, reencrypt, reshard) records a trace tree
// under its own root span, and the OTP generator counts keystream engine
// selections. nil — the default
// — disables telemetry entirely; the disabled path is a nil check per
// record site and adds no measurable cost to Query (benchmark-verified,
// see BenchmarkQueryParallel / BenchmarkQueryParallelTelemetry).
func WithTelemetry(reg *Telemetry) Option {
	return func(c *config) { c.telemetry = reg }
}

// Timing is one query's anatomy: the wall-clock total plus each
// architectural phase's own elapsed time. A small query on a local table
// runs inline — NDP, then Pad, then Tag, then Verify, back to back — so
// its phases sum to just under Total. A remote or cluster table, or a
// long pad walk, overlaps NDP with Pad and Tag (the paper's OTP engines
// run ahead of the NDP, §V-C2), and there the phases deliberately do not
// sum to Total. Phases that did not run are zero; Fallback is non-zero
// exactly when the result was recomputed from the TEE mirror. Timing is
// always populated — no registry needed.
type Timing struct {
	// Total is the query's end-to-end latency inside the facade.
	Total time.Duration
	// Pad is the OTP walk: pad regeneration fused with the weighted
	// accumulate (Algorithm 4's trusted side). On a verified query the tag
	// pads come out of the same keystream walk.
	Pad time.Duration
	// NDP is the untrusted half's round trip: ciphertext sums (plus tag
	// sums when verifying) and, for remote tables, the transport.
	NDP time.Duration
	// Tag is the tag-pad field dot (Algorithm 5's trusted side).
	Tag time.Duration
	// Verify is the join: share addition (decrypt), checksum recompute,
	// and the encrypted-MAC compare.
	Verify time.Duration
	// Fallback is the TEE-mirror local recompute, when the NDP could not
	// serve the query (graceful degradation).
	Fallback time.Duration
}

func timingFrom(pt core.PhaseTimes, fallback, total time.Duration) Timing {
	return Timing{
		Total:    total,
		Pad:      pt.Pad,
		NDP:      pt.NDP,
		Tag:      pt.Tag,
		Verify:   pt.Verify,
		Fallback: fallback,
	}
}

// engineTelemetry holds the engine's pre-resolved metric handles so the
// hot path never touches the registry's registration lock. A nil
// *engineTelemetry (telemetry disabled) makes every method a no-op.
type engineTelemetry struct {
	reg *telemetry.Registry

	queries     *telemetry.Counter
	queryErrors *telemetry.Counter
	// errsByClass splits queryErrors by failure class (verify, transport,
	// canceled, invalid), keyed by the class string.
	errsByClass map[string]*telemetry.Counter
	verified    *telemetry.Counter
	degraded    *telemetry.Counter
	batches     *telemetry.Counter
	provisions  *telemetry.Counter
	encrypts    *telemetry.Counter

	// Batch-coalescing series (DESIGN.md §8): how much the batched query
	// pipeline amortized across sub-requests.
	batchPipelined *telemetry.Counter
	batchFanout    *telemetry.Counter
	batchSubs      *telemetry.Counter
	batchRowRefs   *telemetry.Counter
	batchDistinct  *telemetry.Counter
	batchWireOps   *telemetry.Counter

	queryHist *telemetry.Histogram
	batchHist *telemetry.Histogram
	phaseHist [len(telemetry.PhaseNames)]*telemetry.Histogram
}

func newEngineTelemetry(reg *telemetry.Registry) *engineTelemetry {
	if reg == nil {
		return nil
	}
	et := &engineTelemetry{
		reg: reg,
		queries: reg.Counter("secndp_queries_total",
			"Queries completed by the facade (success or failure)."),
		queryErrors: reg.Counter("secndp_query_errors_total",
			"Queries that returned an error."),
		verified: reg.Counter("secndp_queries_verified_total",
			"Queries whose encrypted-MAC check ran and passed."),
		degraded: reg.Counter("secndp_queries_degraded_total",
			"Queries served from the TEE ciphertext mirror instead of the NDP."),
		batches: reg.Counter("secndp_batches_total",
			"QueryBatch calls."),
		provisions: reg.Counter("secndp_provisions_total",
			"Tables provisioned to a remote NDP."),
		encrypts: reg.Counter("secndp_encrypts_total",
			"Tables encrypted into local untrusted memory."),
		batchPipelined: reg.Counter("secndp_batch_pipelined_total",
			"QueryBatch calls served by the coalesced one-round-trip pipeline."),
		batchFanout: reg.Counter("secndp_batch_fanout_total",
			"QueryBatch calls served by per-request fan-out because their requests cannot coalesce (element-indexed, or mixed verification settings)."),
		batchSubs: reg.Counter("secndp_batch_subrequests_total",
			"Sub-requests carried by pipelined QueryBatch calls."),
		batchRowRefs: reg.Counter("secndp_batch_rowrefs_total",
			"Row references across pipelined batches, before cross-request dedup."),
		batchDistinct: reg.Counter("secndp_batch_distinct_rows_total",
			"Distinct rows across pipelined batches, after cross-request dedup; the pad dedup hit ratio is 1 - distinct/rowrefs."),
		batchWireOps: reg.Counter("secndp_batch_wire_ops_total",
			"NDP exchanges used by pipelined batches (1 per batch when coalescing holds)."),
		queryHist: reg.Histogram("secndp_query_seconds",
			"End-to-end query latency.", nil),
		batchHist: reg.Histogram("secndp_batch_seconds",
			"End-to-end pipelined QueryBatch latency (whole batch).", nil),
	}
	for p, name := range telemetry.PhaseNames {
		et.phaseHist[p] = reg.Histogram("secndp_phase_"+name+"_seconds",
			"Per-query elapsed time of the "+name+" phase.", nil)
	}
	et.errsByClass = make(map[string]*telemetry.Counter)
	for _, class := range []string{
		telemetry.ErrClassVerify, telemetry.ErrClassTransport,
		telemetry.ErrClassCanceled, telemetry.ErrClassInvalid,
	} {
		et.errsByClass[class] = reg.Counter("secndp_query_errors_"+class+"_total",
			"Query failures of class "+class+" (see DESIGN.md §12 for the taxonomy).")
	}
	return et
}

// classifyErr folds a failed query's error into its telemetry class:
// the caller's own cancellation, a verification rejection, a semantic
// rejection of the request, or (the remaining bulk) transport trouble.
func classifyErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return telemetry.ErrClassCanceled
	case errors.Is(err, ErrVerification):
		return telemetry.ErrClassVerify
	case errors.Is(err, ErrIndexRange) || errors.Is(err, ErrNoTags) || errors.Is(err, ErrBadGeometry):
		return telemetry.ErrClassInvalid
	default:
		return telemetry.ErrClassTransport
	}
}

// startSpan opens a root trace span for one facade operation; with
// telemetry disabled (nil et) it is free and returns the context as-is.
func (et *engineTelemetry) startSpan(ctx context.Context, op string) (context.Context, *telemetry.ActiveSpan) {
	if et == nil {
		return ctx, nil
	}
	return et.reg.StartSpan(ctx, op)
}

// instrumentGenerator attaches the OTP engine-selection counters.
func (et *engineTelemetry) instrumentGenerator(scheme *core.Scheme) {
	if et == nil {
		return
	}
	scheme.Generator().Instrument(
		et.reg.Counter("secndp_otp_engine_native_total",
			"Pad runs served by the native AES-NI CTR assembly."),
		et.reg.Counter("secndp_otp_engine_stream_total",
			"Pad runs served by the stdlib AES-CTR stream."),
		et.reg.Counter("secndp_otp_engine_perblock_total",
			"Pad runs served by per-block cipher encryption (no AES-NI)."),
	)
}

// recordQuery folds one completed query into the counters (split by
// error class) and the end-to-end and per-phase histograms, with the
// trace ID as the latency exemplar. The caller ends the query's root
// span beside this call.
func (et *engineTelemetry) recordQuery(tm Timing, verified, degraded bool, trace telemetry.TraceID, err error) {
	if et == nil {
		return
	}
	et.queries.Inc()
	if err != nil {
		et.queryErrors.Inc()
		if c := et.errsByClass[classifyErr(err)]; c != nil {
			c.Inc()
		}
	}
	if verified {
		et.verified.Inc()
	}
	if degraded {
		et.degraded.Inc()
	}
	et.queryHist.ObserveTrace(tm.Total, trace)
	et.observePhases(tm)
}

// observePhases records each phase tm ran (in telemetry.PhaseNames
// order) into its secndp_phase_<name>_seconds histogram.
func (et *engineTelemetry) observePhases(tm Timing) {
	if et == nil {
		return
	}
	for p, d := range [...]time.Duration{tm.Pad, tm.NDP, tm.Tag, tm.Verify, tm.Fallback} {
		if d != 0 {
			et.phaseHist[p].Observe(d)
		}
	}
}

// recordBatch folds one pipelined QueryBatch into the registry: per-result
// counter bumps (queries, errors, verified, degraded — so the per-query
// series stay comparable with the fan-out path), the batch latency
// histogram, and the coalescing counters. out and errs align with the
// batch's requests. The caller ends the batch's root span beside this
// call.
func (et *engineTelemetry) recordBatch(total time.Duration, stats core.BatchStats, out []Result, errs []error, trace telemetry.TraceID) {
	if et == nil {
		return
	}
	et.batchPipelined.Inc()
	et.batchSubs.Add(uint64(stats.Requests))
	et.batchRowRefs.Add(uint64(stats.RowRefs))
	et.batchDistinct.Add(uint64(stats.DistinctRows))
	et.batchWireOps.Add(uint64(stats.WireOps))
	var nErr, nVerified, nDegraded uint64
	for i := range out {
		switch {
		case errs[i] != nil:
			nErr++
		case out[i].Verified:
			nVerified++
		}
		if out[i].Degraded {
			nDegraded++
		}
	}
	et.queries.Add(uint64(len(out)))
	et.queryErrors.Add(nErr)
	et.verified.Add(nVerified)
	et.degraded.Add(nDegraded)
	et.batchHist.ObserveTrace(total, trace)
}

// Telemetry returns the registry attached with WithTelemetry, or nil when
// the engine runs without telemetry.
func (e *Engine) Telemetry() *Telemetry {
	if e.tel == nil {
		return nil
	}
	return e.tel.reg
}
