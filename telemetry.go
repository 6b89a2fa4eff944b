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
// timings surfaced on Result, and the span/metric recording that makes
// one registry snapshot tell the whole story — transport retries and
// breaker state, OTP engine selection, and per-phase query latency
// histograms. See DESIGN.md §7.

// Telemetry is the unified metrics and tracing registry: lock-free
// counters, gauges, and latency histograms with Prometheus/expvar
// exporters, plus a ring buffer of recent query spans. Serve its Handler
// (or call WriteProm/Snapshot) to observe a running engine; share one
// registry between the engine (WithTelemetry), the transport
// (ReliableNDP.Instrument, done automatically by CreateTable), and the NDP
// server (Server.Instrument) for a single coherent snapshot.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry attaches a metrics + tracing registry to the engine:
// every query records per-phase latency histograms and a span in the
// registry's trace ring, and the OTP generator counts keystream engine
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
	// canceled, invalid, other), keyed by the class string.
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
	phaseHist [telemetry.NumPhases]*telemetry.Histogram
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
	for p := 0; p < telemetry.NumPhases; p++ {
		name := telemetry.Phase(p).String()
		et.phaseHist[p] = reg.Histogram("secndp_phase_"+name+"_seconds",
			"Per-query elapsed time of the "+name+" phase.", nil)
	}
	et.errsByClass = make(map[string]*telemetry.Counter)
	for _, class := range []string{
		telemetry.ErrClassVerify, telemetry.ErrClassTransport,
		telemetry.ErrClassCanceled, telemetry.ErrClassInvalid,
		telemetry.ErrClassOther,
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
	case errors.Is(err, ErrRetriesExhausted) || errors.Is(err, ErrCircuitOpen):
		return telemetry.ErrClassTransport
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

// recordQuery folds one completed query into the registry: counters
// (split by error class), the end-to-end and per-phase histograms (with
// the trace ID as the latency exemplar), and a span in the trace ring.
func (et *engineTelemetry) recordQuery(op string, start time.Time, tm Timing, verified, degraded bool, trace telemetry.TraceID, err error) {
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
	span := telemetry.Span{
		Op:       op,
		Start:    start,
		Total:    tm.Total,
		Verified: verified,
		Degraded: degraded,
	}
	if trace != 0 {
		span.Trace = trace.String()
	}
	if err != nil {
		span.Err = err.Error()
		span.ErrClass = classifyErr(err)
	}
	phases := [telemetry.NumPhases]time.Duration{
		telemetry.PhasePad:      tm.Pad,
		telemetry.PhaseNDP:      tm.NDP,
		telemetry.PhaseTag:      tm.Tag,
		telemetry.PhaseVerify:   tm.Verify,
		telemetry.PhaseFallback: tm.Fallback,
	}
	for p, d := range phases {
		if d != 0 {
			et.phaseHist[p].Observe(d)
			span.Phases[p] = d
		}
	}
	et.reg.RecordSpan(span)
}

// recordBatch folds one pipelined QueryBatch into the registry: per-result
// counter bumps (queries, errors, verified, degraded — so the per-query
// series stay comparable with the fan-out path), the batch latency
// histogram, the coalescing counters, and one batch-level span (per-sub
// spans would flood the trace ring at serving batch sizes).
func (et *engineTelemetry) recordBatch(start time.Time, stats core.BatchStats, nOK, nErr, nVerified, nDegraded int, trace telemetry.TraceID, firstErr error) {
	if et == nil {
		return
	}
	total := time.Since(start)
	et.batchPipelined.Inc()
	et.batchSubs.Add(uint64(stats.Requests))
	et.batchRowRefs.Add(uint64(stats.RowRefs))
	et.batchDistinct.Add(uint64(stats.DistinctRows))
	et.batchWireOps.Add(uint64(stats.WireOps))
	et.queries.Add(uint64(nOK + nErr))
	et.queryErrors.Add(uint64(nErr))
	et.verified.Add(uint64(nVerified))
	et.degraded.Add(uint64(nDegraded))
	et.batchHist.ObserveTrace(total, trace)
	span := telemetry.Span{
		Op:       "query_batch",
		Start:    start,
		Total:    total,
		Verified: nVerified > 0,
		Degraded: nDegraded > 0,
	}
	if trace != 0 {
		span.Trace = trace.String()
	}
	if firstErr != nil {
		span.Err = firstErr.Error()
		span.ErrClass = classifyErr(firstErr)
	}
	et.reg.RecordSpan(span)
}

// recordOp folds a non-query operation (provision, encrypt) into the
// registry as a counter bump plus a single-phase span.
func (et *engineTelemetry) recordOp(op string, start time.Time, err error) {
	if et == nil {
		return
	}
	switch op {
	case "provision":
		et.provisions.Inc()
	case "encrypt":
		et.encrypts.Inc()
	}
	span := telemetry.Span{Op: op, Start: start, Total: time.Since(start)}
	if err != nil {
		span.Err = err.Error()
	}
	et.reg.RecordSpan(span)
}

// Telemetry returns the registry attached with WithTelemetry, or nil when
// the engine runs without telemetry.
func (e *Engine) Telemetry() *Telemetry {
	if e.tel == nil {
		return nil
	}
	return e.tel.reg
}
