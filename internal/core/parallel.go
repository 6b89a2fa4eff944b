package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/telemetry"
)

// This file is the query engine: QueryCtx, which joins an NDP answer with
// an OTP share and checks the MAC, and QueryBatchCtx, the batch walk. The
// stages are always the same — NDP exchange, OTP walk, tag dot, join. Both
// engines run them either inline on the caller's goroutine or overlapped,
// the software counterpart of the paper's OTP engines running ahead of the
// NDP response (§V-C2): the exchange in the background while the walk runs
// (sharded across a worker pool). One planner, overlapped, picks the shape;
// only a short walk over the in-process HonestNDP runs inline. A query
// over any other NDP is a batch of one, so a transport has one whole-row
// operation, WeightedTagSumBatch; an NDP that can split that exchange at
// the wire (BatchStarter) overlaps it with the walk from the caller's
// goroutine.

// QueryOptions tunes one query or batch through the engine. The zero value
// selects GOMAXPROCS workers and no verification.
type QueryOptions struct {
	// Workers is the OTP-side parallelism: the shards of an in-process
	// overlapped query's pad walk (an inline query runs one) and the pad
	// generators of a batch walk, which also serves every query over an
	// NDP other than HonestNDP. <= 0 selects GOMAXPROCS.
	Workers int
	// Verify runs Algorithm 5 (encrypted-MAC check) after Algorithm 4.
	Verify bool
	// Phases, when non-nil, receives the query's (or batch's) per-phase
	// wall-clock breakdown. An inline query runs its phases back to back;
	// on an overlapped one the NDP round trip runs concurrently with the
	// pad walk, so there the phases do not sum to the total latency. A
	// batch walk draws its tag pads in the pad sweep, so its Tag stays
	// zero.
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

// inlinePadBytes is the planner's one constant: a query or batch walk over
// the in-process NDP whose pad walk covers fewer bytes than this (rows
// walked · RowBytes) runs inline. Sized on a 2-vCPU box with one caller
// on a 65 536 × 256 B TagSep table, verified, inline vs overlapped:
//
//	   80 rows ( 20 KiB)    32 µs vs   46 µs
//	  256 rows ( 64 KiB)    97 µs vs  106 µs
//	  512 rows (128 KiB)   197 µs vs  176 µs
//	1 024 rows (256 KiB)   417 µs vs  399 µs
//	4 096 rows (  1 MiB)  2.01 ms vs 1.49 ms
//
// Below the crossover (64–128 KiB) the goroutine wake-ups cost more than
// the overlap saves; under load every core already has a caller and inline
// always wins, so the constant sits at the top of that range.
const inlinePadBytes = 128 << 10

// overlapped is the planner of both engines over the in-process NDP: it
// reports whether a pad walk over n rows — len(idx) for QueryCtx, the
// plan's distinct rows for a batch walk — runs the overlapped shape (NDP
// exchange in the background, pad walk sharded) rather than inline, which
// it does once the walk is long enough to pay for the hand-offs.
func (t *Table) overlapped(n int) bool {
	return n*t.geo.Params.RowBytes() >= inlinePadBytes
}

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

// otpShards runs otpWalk over the whole index list in `shards` contiguous
// shards: one on the caller's goroutine when shards is 1, otherwise a
// goroutine each, accumulating partial shares that merge into acc with
// ring additions (addition commutes with the sharding, so the result is
// bit-identical for any shard count). Tag pads land in disjoint ranges of
// tagPads and need no merge. acc and tagPads are as for otpWalk.
func (t *Table) otpShards(ctx context.Context, idx []int, weights []uint64, shards int, acc []uint64, tagPads []byte) error {
	if shards <= 1 {
		return t.otpWalk(ctx, idx, weights, 0, len(idx), acc, tagPads)
	}
	chunk := (len(idx) + shards - 1) / shards
	// Shard 0 accumulates straight into acc, the others into one zeroed slab.
	partials := make([]uint64, (shards-1)*len(acc))
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s*chunk < len(idx); s++ {
		part := acc
		if s > 0 && acc != nil {
			part = partials[(s-1)*len(acc) : s*len(acc)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = t.otpWalk(ctx, idx, weights, s*chunk, min((s+1)*chunk, len(idx)), part, tagPads)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for off := 0; off < len(partials); off += len(acc) {
		t.r.AddVec(acc, acc, partials[off:off+len(acc)])
	}
	return nil
}

// OTPWeightedSumCtx computes the processor's data share E_res[j] =
// Σ_k weights[k]·E[idx[k]][j] mod 2^we (Algorithm 4 lines 8–14) through
// otpShards with opts.workerCount shards. opts.Verify is ignored.
func (t *Table) OTPWeightedSumCtx(ctx context.Context, idx []int, weights []uint64, opts QueryOptions) ([]uint64, error) {
	if len(idx) != len(weights) {
		return nil, fmt.Errorf("core: %d indices vs %d weights", len(idx), len(weights))
	}
	acc := make([]uint64, t.geo.Params.M)
	if err := t.otpShards(ctx, idx, weights, opts.workerCount(len(idx)), acc, nil); err != nil {
		return nil, err
	}
	return acc, nil
}

// TagPadSumCtx computes the processor's share of the result MAC, E_Tres =
// Σ_k weights[k]·E_T[idx[k]] mod q (Algorithm 5 lines 11–14): the tag pads
// staged through otpShards, then one tagDot.
func (t *Table) TagPadSumCtx(ctx context.Context, idx []int, weights []uint64, opts QueryOptions) (field.Elem, error) {
	if len(idx) != len(weights) {
		return field.Zero, fmt.Errorf("core: %d indices vs %d weights", len(idx), len(weights))
	}
	tp, tagPads := getByteScratch(len(idx) * otp.BlockBytes)
	defer putByteScratch(tp)
	if err := t.otpShards(ctx, idx, weights, opts.workerCount(len(idx)), nil, tagPads); err != nil {
		return field.Zero, err
	}
	return tagDot(tagPads, weights), nil
}

// ndpOutputs collects what one query needs from the NDP side.
type ndpOutputs struct {
	cres  []uint64
	cTres field.Elem
	err   error
	dur   time.Duration // round-trip elapsed; set only when phases are recorded
}

// runNDP executes the ciphertext-side half of an in-process query under
// its "ndp" child span, converting a panic out of the gather into an
// error.
func runNDP(ctx context.Context, ndp *HonestNDP, geo Geometry, idx []int, weights []uint64, verify, timed bool) (out ndpOutputs) {
	ctx, span := telemetry.SpanFromContext(ctx).StartChild(ctx, "ndp")
	ph := startPhase(span, timed)
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("core: ndp failed: %v", r)
		}
		out.dur = ph.end(out.err, telemetry.ErrClassTransport)
	}()
	out.cres, out.cTres, out.err = ndp.weightedTagSum(ctx, geo, idx, weights, verify)
	return
}

// QueryCtx runs the weighted-summation protocol of Algorithm 4 against an
// NDP — the NDP computes over ciphertext while the processor computes over
// its OTP shares, and the two shares are added — and, with opts.Verify,
// the encrypted-MAC check of Algorithm 5 on the joined result; a rejected
// result returns ErrVerification. Every single-query entry point and the
// cluster's fault localization land here.
//
// The shape is planned per call. Over the in-process HonestNDP a small
// query runs NDP call, OTP walk, tag dot and join back to back on the
// caller's goroutine, and a long one (see overlapped) puts the NDP walk in
// the background and shards the OTP walk over opts.Workers. Any other NDP
// — a transport or a wrapper — runs the query as a batch of one
// (QueryBatchCtx), its one exchange in flight while the pad sweep runs.
// Every shape computes bit-identical results.
func (t *Table) QueryCtx(ctx context.Context, ndp NDP, idx []int, weights []uint64, opts QueryOptions) ([]uint64, error) {
	if err := t.checkQuery(idx, weights); err != nil {
		return nil, err
	}
	if opts.Verify && t.geo.Layout.Placement == memory.TagNone {
		return nil, fmt.Errorf("%w; disable verification for Enc-only tables", ErrNoTags)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	honest, inProcess := ndp.(*HonestNDP)
	if !inProcess {
		req := [1]BatchRequest{{Idx: idx, Weights: weights}}
		opts.Stats = nil
		r := t.QueryBatchCtx(ctx, ndp, req[:], opts)[0]
		return r.Res, r.Err
	}
	// Architectural-phase child spans when the context carries a trace; a
	// nil span (the common untraced path) makes every span call a no-op.
	span := telemetry.SpanFromContext(ctx)
	timed := opts.Phases != nil
	var times PhaseTimes
	if timed {
		defer func() { *opts.Phases = times }()
	}

	shards := 1
	var nd ndpOutputs
	var ndpCh chan ndpOutputs
	if t.overlapped(len(idx)) {
		shards = opts.workerCount(len(idx))
		ndpCh = make(chan ndpOutputs, 1)
		go func() { ndpCh <- runNDP(ctx, honest, t.geo, idx, weights, opts.Verify, timed) }()
	} else if nd = runNDP(ctx, honest, t.geo, idx, weights, opts.Verify, timed); nd.err != nil {
		times.NDP = nd.dur
		return nil, nd.err
	}

	// Processor side. The OTP share accumulates into the result vector,
	// which the join below completes in place.
	res := make([]uint64, t.geo.Params.M)
	var tagPads []byte
	if opts.Verify {
		tp, b := getByteScratch(len(idx) * otp.BlockBytes)
		defer putByteScratch(tp)
		tagPads = b
	}
	ph := startPhase(span.Child("pad"), timed)
	err := t.otpShards(ctx, idx, weights, shards, res, tagPads)
	times.Pad = ph.end(err, telemetry.ErrClassCanceled)
	var eTres field.Elem
	if opts.Verify && err == nil {
		ph = startPhase(span.Child("tag"), timed)
		eTres = tagDot(tagPads, weights)
		times.Tag = ph.end(nil, "")
	}
	if ndpCh != nil {
		nd = <-ndpCh
	}
	times.NDP = nd.dur
	if err != nil {
		return nil, err
	}
	if nd.err != nil {
		return nil, nd.err
	}
	if len(nd.cres) != len(res) {
		return nil, fmt.Errorf("core: ndp returned %d columns, want %d", len(nd.cres), len(res))
	}

	ph = startPhase(span.Child("verify"), timed)
	t.r.AddVec(res, nd.cres, res)
	if opts.Verify && !t.resultChecksum(res).Equal(field.Add(nd.cTres, eTres)) {
		err = ErrVerification
	}
	times.Verify = ph.end(err, telemetry.ErrClassVerify)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// QueryBatchCtx runs many queries as one coalesced batch walk: one NDP
// exchange for every sub-request's ciphertext and tag sums, each distinct
// row's OTP pad generated once and scattered to all requesters, then each
// joined result's own MAC check. Per-request results and errors are
// byte-identical to running QueryCtx per request over HonestNDP. Its shape
// is planned as QueryCtx's is (see overlapped): over HonestNDP a batch of
// few distinct rows runs the exchange, then the sweep, on the caller's
// goroutine; any other batch overlaps the two — split on the caller's
// goroutine for a BatchStarter that accepts it, on a goroutine of its own
// otherwise. The walk records the ndp, pad and verify phases as QueryCtx
// does: child spans of ctx's span, and opts.Phases when set.
//
// A batch-level failure — the exchange's, or a cancelled sweep — becomes
// every planned request's error.
func (t *Table) QueryBatchCtx(ctx context.Context, ndp NDP, reqs []BatchRequest, opts QueryOptions) []BatchResult {
	if len(reqs) == 0 {
		return make([]BatchResult, 0)
	}
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
	w := t.PlanBatch(reqs, opts)
	defer w.Release()
	var (
		res []NDPBatchResult
		err error
	)
	if sub := w.Requests(); len(sub) > 0 {
		// The whole batch is one NDP exchange, planned as QueryCtx plans
		// its walk: over the in-process HonestNDP, while the plan's
		// distinct rows stay under inlinePadBytes, the exchange runs on
		// this goroutine and the OTP sweep after it — a goroutine's start,
		// wake-up and stack growth cost more than the overlap saves on a
		// walk that short (a verified Local batch of 8 unit requests read
		// 10.6–12.4 µs with the hand-off, 7.5–9.4 µs without, 2 vCPUs).
		// The sweep still spreads a tile over the workers once it reaches
		// 128 rows (otpBatch). An NDP that splits its exchange
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
		_, inProcess := ndp.(*HonestNDP)
		switch {
		case pend != nil:
			defer pend.Close()
		case inProcess && !t.overlapped(len(w.plan.rows)):
			res, err = runBatchNDP(xctx, ndp, t.geo, sub, opts.Verify)
			times.NDP = xph.end(err, telemetry.ErrClassTransport)
		default:
			x = exchangePool.Get().(*batchExchange)
			go x.run(xctx, ndp, t.geo, sub, opts.Verify)
		}
		if err == nil {
			ph := startPhase(span.Child("pad"), timed)
			times.Pad = ph.end(w.Sweep(ctx), telemetry.ErrClassCanceled)
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
	out := w.Join(res, err)
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

// batchExchange is QueryBatchCtx's background NDP exchange: its answer
// and a one-slot channel that signals it, pooled so the hand-off costs
// one goroutine and no other allocation. One send per exchange leaves
// the channel empty again for the next.
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
