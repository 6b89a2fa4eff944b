package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"secndp/internal/field"
	"secndp/internal/otp"
	"secndp/internal/telemetry"
)

// This file is the query engine: QueryBatchCtx, the batch walk, and
// QueryCtx, a batch of one. The stages are always the same — NDP exchange,
// OTP sweep, join and MAC check — run either back to back on the caller's
// goroutine or overlapped, the software counterpart of the paper's OTP
// engines running ahead of the NDP response (§V-C2): the exchange in
// flight while the sweep runs. One planner, overlapped, picks the shape;
// only a short walk over the in-process HonestNDP runs back to back. A
// batch with one valid, short request — every short single query — skips
// the dedup plan on both sides: the sweep is otpWalk over its indices as
// given, then tagDot, and HonestNDP gathers them as given. A transport
// has one whole-row operation, WeightedTagSumBatch; an NDP that can split
// that exchange at the wire (BatchStarter) overlaps it with the sweep from
// the caller's goroutine.

// QueryOptions tunes one query or batch through the engine. The zero value
// selects GOMAXPROCS workers and no verification.
type QueryOptions struct {
	// Workers is the OTP-side parallelism: the pad generators of a
	// planned sweep, which fan out once a tile reaches 2·ctxCheckStride
	// distinct rows. A one-request walk runs on the caller's goroutine.
	// <= 0 selects GOMAXPROCS.
	Workers int
	// Verify runs Algorithm 5 (encrypted-MAC check) after Algorithm 4.
	Verify bool
	// Phases, when non-nil, receives the query's (or batch's) per-phase
	// wall-clock breakdown. A short walk over HonestNDP runs its phases
	// back to back; on any other the NDP round trip runs concurrently with
	// the pad sweep, so there the phases do not sum to the total latency.
	// Only a one-request walk has a Tag phase, its tag dot; a planned
	// sweep sums its tag pads as it goes, so there Tag stays zero.
	Phases *PhaseTimes
	// Stats, when non-nil, receives batch-coalescing counters from
	// QueryBatchCtx (ignored by single-query entry points).
	Stats *BatchStats
}

// PhaseTimes is one query's anatomy: how long each architectural phase
// took. Pad is the OTP walk (pad regeneration + accumulate; on a verified
// query the tag pads come out of the same keystream pass), NDP the
// untrusted round trip (ciphertext sums, plus tag sums when verifying), Tag
// the tag-pad field dot, Verify the final join (share addition, checksum
// recompute, MAC compare). Phases that did not run stay zero.
type PhaseTimes struct {
	Pad, NDP, Tag, Verify time.Duration
}

func (o QueryOptions) workerCount(items int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ctxCheckStride bounds how many rows a walk processes between
// cancellation checks.
const ctxCheckStride = 64

// inlinePadBytes is the planner's one constant: a walk over the
// in-process NDP whose pad walk covers fewer bytes than this (rows walked
// · RowBytes) runs its exchange and sweep back to back, and a lone
// request that short skips the dedup plan. Sized on a 2-vCPU box with one
// caller on a 65 536 × 256 B TagSep table, verified, one query back to
// back vs overlapped:
//
//	   80 rows ( 20 KiB)    32 µs vs   46 µs
//	  256 rows ( 64 KiB)    97 µs vs  106 µs
//	  512 rows (128 KiB)   197 µs vs  176 µs
//	1 024 rows (256 KiB)   417 µs vs  399 µs
//	4 096 rows (  1 MiB)  2.01 ms vs 1.49 ms
//
// Below the crossover (64–128 KiB) the goroutine wake-ups cost more than
// the overlap saves; under load every core already has a caller and back
// to back always wins, so the constant sits at the top of that range.
const inlinePadBytes = 128 << 10

// overlapped is the engine's planner: it reports whether a walk over n
// rows — a lone request's references, or a plan's distinct rows — is
// long enough to pay for the hand-offs: the exchange in the background
// and, for a lone request, a planned sweep rather than otpWalk over its
// indices as given. HonestNDP asks it of a lone request too.
func (g Geometry) overlapped(n int) bool {
	return n*g.Params.RowBytes() >= inlinePadBytes
}

func (t *Table) overlapped(n int) bool { return t.geo.overlapped(n) }

// phase is one architectural phase of a query being measured: its child
// span (nil when untraced) and, when the caller asked for PhaseTimes, its
// start time.
type phase struct {
	span *telemetry.ActiveSpan
	t0   time.Time
}

func startPhase(span *telemetry.ActiveSpan, timed bool) phase {
	p := phase{span: span}
	if timed {
		p.t0 = time.Now()
	}
	return p
}

// end closes the phase's span, recording err under class, and returns the
// elapsed time (zero when untimed).
func (p phase) end(err error, class string) (d time.Duration) {
	if !p.t0.IsZero() {
		d = time.Since(p.t0)
	}
	p.span.EndErr(err, class)
	return d
}

// OTPWeightedSumCtx computes the processor's data share E_res[j] =
// Σ_k weights[k]·E[idx[k]][j] mod 2^we (Algorithm 4 lines 8–14): the
// sweep half of a one-request walk, so rows are checked as a query's are
// and a long walk is planned and spread over opts.Workers. opts.Verify is
// ignored.
func (t *Table) OTPWeightedSumCtx(ctx context.Context, idx []int, weights []uint64, opts QueryOptions) ([]uint64, error) {
	opts.Verify, opts.Stats = false, nil
	w := t.PlanBatch([]BatchRequest{{Idx: idx, Weights: weights}}, opts)
	defer w.Release()
	if err := w.out[0].Err; err != nil {
		return nil, err
	}
	if err := w.Sweep(ctx); err != nil {
		return nil, err
	}
	return slices.Clone(w.s.accs[0]), nil
}

// TagPadSumCtx computes the processor's share of the result MAC, E_Tres =
// Σ_k weights[k]·E_T[idx[k]] mod q (Algorithm 5 lines 11–14): the tag
// half of a one-request sweep — the tag pads staged by otpWalk, then one
// tagDot — on the caller's goroutine, with rows checked as a query's are.
// opts is unused.
func (t *Table) TagPadSumCtx(ctx context.Context, idx []int, weights []uint64, _ QueryOptions) (field.Elem, error) {
	if err := t.checkQuery(idx, weights); err != nil {
		return field.Zero, err
	}
	tp, tagPads := getByteScratch(len(idx) * otp.BlockBytes)
	defer putByteScratch(tp)
	if err := t.otpWalk(ctx, idx, weights, nil, tagPads); err != nil {
		return field.Zero, err
	}
	return tagDot(tagPads, weights), nil
}

// QueryCtx runs the weighted-summation protocol of Algorithm 4 against an
// NDP — the NDP computes over ciphertext while the processor computes over
// its OTP shares, and the two shares are added — and, with opts.Verify,
// the encrypted-MAC check of Algorithm 5 on the joined result; a rejected
// result returns ErrVerification. Every single-query entry point and the
// cluster's fault localization land here. A query is a batch of one
// (QueryBatchCtx), whatever the NDP.
func (t *Table) QueryCtx(ctx context.Context, ndp NDP, idx []int, weights []uint64, opts QueryOptions) ([]uint64, error) {
	var out [1]BatchResult
	opts.Stats = nil
	r := t.walk(ctx, ndp, []BatchRequest{{Idx: idx, Weights: weights}}, opts, out[:])[0]
	return r.Res, r.Err
}

// QueryBatchCtx runs many queries as one coalesced batch walk: one NDP
// exchange for every sub-request's ciphertext and tag sums, each distinct
// row's OTP pad generated once and scattered to all requesters, then each
// joined result's own MAC check. Per-request results and errors are
// byte-identical to running each request alone. Its shape is planned on
// the input (see overlapped): over HonestNDP a short walk runs the
// exchange, then the sweep, on the caller's goroutine; any other walk
// overlaps the two — split on the caller's goroutine for a
// BatchStarter that accepts it, on a goroutine of its own otherwise. The
// walk records the ndp, pad, tag (a one-request walk's tag dot) and verify
// phases: child spans of ctx's span, and opts.Phases when set.
//
// A batch-level failure — the exchange's, or a cancelled sweep — becomes
// every planned request's error.
func (t *Table) QueryBatchCtx(ctx context.Context, ndp NDP, reqs []BatchRequest, opts QueryOptions) []BatchResult {
	if len(reqs) == 0 {
		return make([]BatchResult, 0)
	}
	return t.walk(ctx, ndp, reqs, opts, make([]BatchResult, len(reqs)))
}

// walk is QueryBatchCtx joining into out, one result per request; a
// single query's out stays on its stack.
func (t *Table) walk(ctx context.Context, ndp NDP, reqs []BatchRequest, opts QueryOptions, out []BatchResult) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Stats != nil {
		*opts.Stats = BatchStats{Requests: len(reqs)}
	}
	span := telemetry.SpanFromContext(ctx)
	timed := opts.Phases != nil
	var times PhaseTimes
	if timed {
		defer func() { *opts.Phases = times }()
	}
	var w BatchWalk
	t.planWalk(&w, reqs, opts, out)
	defer w.Release()
	var (
		res []NDPBatchResult
		err error
	)
	if sub := w.Requests(); len(sub) > 0 {
		// The whole batch is one NDP exchange. Over the in-process
		// HonestNDP, while the walk's rows (a lone request's references, or
		// the plan's distinct rows) stay under inlinePadBytes, the exchange
		// runs on this goroutine and the OTP sweep after it — a goroutine's
		// start, wake-up and stack growth cost more than the overlap saves
		// on a walk that short (a verified Local batch of 8 unit requests
		// read 10.6–12.4 µs with the hand-off, 7.5–9.4 µs without, 2
		// vCPUs). The sweep still spreads a tile over the workers once it
		// reaches 128 rows (otpBatch). An NDP that splits its exchange
		// (BatchStarter) puts it on the wire from this goroutine and is
		// awaited after the sweep. Every other batch hands the exchange to
		// a goroutine of its own while the sweep runs on this one. The
		// exchange runs under the "ndp" span's context, so the
		// cluster's and the wire's spans nest under it. An exchange's phase
		// ends here, when the answer is seen, and not on a goroutine of
		// its own: ending it there read +23 % CPU per lookup on
		// serve_rotate (six pairs), the exchange goroutines' stacks growing
		// far more often.
		xctx, xspan := span.StartChild(ctx, "ndp")
		xph := startPhase(xspan, timed)
		var x *batchExchange
		var pend PendingBatch
		if bs, ok := ndp.(BatchStarter); ok {
			pend = bs.StartBatch(xctx, t.geo, sub, opts.Verify)
		}
		honest, inProcess := ndp.(*HonestNDP)
		switch {
		case pend != nil:
			defer pend.Close()
		case inProcess && !t.overlapped(w.rows()):
			// HonestNDP answers the requests the walk checked into the
			// walk's pooled buffer; only its sums slab, which the joined
			// results keep, is fresh (release drops it).
			buf := &w.s.ndp
			buf.out = resized(buf.out, len(sub))
			res, err = honest.answer(xctx, t.geo, sub, opts.Verify, buf)
			times.NDP = xph.end(err, telemetry.ErrClassTransport)
		default:
			x = exchangePool.Get().(*batchExchange)
			go x.run(xctx, ndp, t.geo, sub, opts.Verify)
		}
		if err == nil {
			ph := startPhase(span.Child("pad"), timed)
			times.Pad = ph.end(w.sweepPads(ctx), telemetry.ErrClassCanceled)
			if w.sweepErr == nil && w.lone && opts.Verify {
				ph = startPhase(span.Child("tag"), timed)
				w.dotTags()
				times.Tag = ph.end(nil, "")
			}
		}
		if pend != nil {
			res, err = pend.Await()
			times.NDP = xph.end(err, telemetry.ErrClassTransport)
		}
		if x != nil {
			<-x.done
			res, err = x.res, x.err
			x.res, x.err = nil, nil
			exchangePool.Put(x)
			times.NDP = xph.end(err, telemetry.ErrClassTransport)
		}
	}
	ph := startPhase(span.Child("verify"), timed)
	out = w.join(res, err, out)
	var verr error
	if span != nil && slices.ContainsFunc(out, func(r BatchResult) bool { return r.Err == ErrVerification }) {
		verr = ErrVerification
	}
	times.Verify = ph.end(verr, telemetry.ErrClassVerify)
	return out
}

// BatchStarter is an NDP that can split a batch exchange around the
// caller's pad sweep (cluster.NDP): StartBatch puts the exchange on its
// way from the calling goroutine and returns it pending, and the walk
// awaits it after the sweep, with no goroutine of its own. A nil
// PendingBatch declines the split for this exchange: the walk then hands
// it, whole, to a goroutine, as it does any other transport's.
type BatchStarter interface {
	StartBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) PendingBatch
}

// PendingBatch is an exchange StartBatch put on its way. Await reads its
// answer, as WeightedTagSumBatch gives it, at most once; Close then
// releases it, awaited or not, once.
type PendingBatch interface {
	Await() ([]NDPBatchResult, error)
	Close()
}

// batchExchange is the walk's background NDP exchange: its answer and a
// one-slot channel that signals it, pooled so the hand-off costs one
// goroutine and no other allocation. One send per exchange leaves the
// channel empty again for the next.
type batchExchange struct {
	res  []NDPBatchResult
	err  error
	done chan struct{}
}

var exchangePool = sync.Pool{New: func() any { return &batchExchange{done: make(chan struct{}, 1)} }}

func (x *batchExchange) run(ctx context.Context, ndp NDP, geo Geometry, reqs []BatchRequest, verify bool) {
	x.res, x.err = runBatchNDP(ctx, ndp, geo, reqs, verify)
	x.done <- struct{}{}
}

// runBatchNDP is one batch exchange, a panic out of the NDP turned into
// its error.
func runBatchNDP(ctx context.Context, ndp NDP, geo Geometry, reqs []BatchRequest, verify bool) (res []NDPBatchResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: ndp failed: %v", r)
		}
	}()
	return ndp.WeightedTagSumBatch(ctx, geo, reqs, verify)
}
