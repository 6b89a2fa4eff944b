package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/telemetry"
)

// This file is the query engine: the one function body, QueryCtx, that
// joins an NDP answer with an OTP share and checks the MAC, plus the plan
// that picks its shape. The stages are always the same — NDP exchange, OTP
// walk, tag dot, join — and a query runs them either inline on the
// caller's goroutine or overlapped, the software counterpart of the paper's
// OTP engines running ahead of the NDP response (§V-C2): the exchange in
// the background while the walk is sharded across a worker pool.

// QueryOptions tunes one query or batch through the engine. The zero value
// selects GOMAXPROCS workers and no verification.
type QueryOptions struct {
	// Workers is the OTP-side parallelism: the shards of an overlapped
	// query's pad walk (an inline query runs one) and the goroutines of a
	// batch. <= 0 selects GOMAXPROCS.
	Workers int
	// Verify runs Algorithm 5 (encrypted-MAC check) after Algorithm 4.
	Verify bool
	// Phases, when non-nil, receives the query's per-phase wall-clock
	// breakdown. An inline query runs its phases back to back; on an
	// overlapped one the NDP round trip runs concurrently with the pad
	// walk and the tag dot, so there the phases do not sum to the query's
	// total latency.
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

// inlinePadBytes is the planner's one constant: a query whose pad walk
// covers fewer bytes than this (len(idx)·RowBytes) runs inline when its NDP
// is in-process. Sized on a 2-vCPU box with one caller on a 65 536 × 256 B
// TagSep table, verified, inline vs overlapped:
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

// overlapped is the plan step: it reports whether a query over n rows runs
// the overlapped shape — NDP exchange in the background, pad walk sharded —
// rather than inline. Only the in-process HonestNDP runs inline, and only
// while the walk is too short to pay for the hand-offs; every other NDP —
// a transport (remote.Client, ReliableClient, cluster.NDP) or a wrapper —
// overlaps, so the pad walk hides behind its round trip.
func (t *Table) overlapped(ndp NDP, n int) bool {
	if _, inProcess := ndp.(*HonestNDP); !inProcess {
		return true
	}
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

// runNDP executes the ciphertext-side half of a query under its "ndp"
// child span (whose context threads down into the cluster and wire layers,
// so their spans nest under it), converting a panic out of the NDP into an
// error.
func runNDP(ctx context.Context, ndp NDP, geo Geometry, idx []int, weights []uint64, verify, timed bool) (out ndpOutputs) {
	ctx, span := telemetry.SpanFromContext(ctx).StartChild(ctx, "ndp")
	ph := startPhase(span, timed)
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("core: ndp failed: %v", r)
		}
		out.dur = ph.end(out.err, telemetry.ErrClassTransport)
	}()
	out.cres, out.cTres, out.err = ndp.WeightedTagSum(ctx, geo, idx, weights, verify)
	return
}

// QueryCtx runs the weighted-summation protocol of Algorithm 4 against an
// NDP — the NDP computes over ciphertext while the processor computes over
// its OTP shares, and the two shares are added — and, with opts.Verify,
// the encrypted-MAC check of Algorithm 5 on the joined result; a rejected
// result returns ErrVerification. It is the only place the two halves
// meet: every single-query entry point, the batch fan-out and the
// cluster's fault localization land here.
//
// The shape is planned per call (see overlapped): a small query against an
// in-process NDP runs NDP call, OTP walk, tag dot and join back to back on
// the caller's goroutine; a transport or a long walk puts the NDP exchange
// in the background and shards the walk over opts.Workers. Both shapes
// compute bit-identical results.
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
	if t.overlapped(ndp, len(idx)) {
		shards = opts.workerCount(len(idx))
		ndpCh = make(chan ndpOutputs, 1)
		go func() { ndpCh <- runNDP(ctx, ndp, t.geo, idx, weights, opts.Verify, timed) }()
	} else if nd = runNDP(ctx, ndp, t.geo, idx, weights, opts.Verify, timed); nd.err != nil {
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

// QueryBatchCtx runs many queries as one coalesced batch: one NDP exchange
// for every sub-request's ciphertext and tag sums, each distinct row's OTP
// pad generated once and scattered to all requesters, then each joined
// result's own MAC check. Per-request
// results and errors are byte-identical to running QueryCtx per request.
//
// A batch-level NDP error — transport trouble, or an NDP that cannot batch
// — falls back to the request-level worker pool. Cancellation marks the
// remaining requests with ctx.Err().
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
	w := t.PlanBatch(reqs, opts)
	defer w.Release()
	var (
		res []NDPBatchResult
		err error
	)
	if sub := w.Requests(); len(sub) > 0 {
		// The whole batch in one NDP exchange, on a goroutine of its own
		// while the OTP sweep runs on this one. Even an in-process NDP
		// keeps the hand-off: run inline, the exchange and the sweep would
		// take turns on one core, and a lone caller — a serving drain —
		// loses the overlap (inlining it read −5 % CPU per lookup but +4 %
		// verify_overhead_x on serve_rotate over four pairs, 2 vCPUs).
		x := exchangePool.Get().(*batchExchange)
		go x.run(ctx, ndp, t.geo, sub, opts.Verify)
		w.Sweep(ctx)
		<-x.done
		res, err = x.res, x.err
		x.res, x.err = nil, nil
		exchangePool.Put(x)
	}
	out, err := w.Join(res, err)
	if err == nil {
		return out
	}
	return t.QueryBatchFanout(ctx, ndp, reqs, opts)
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

// QueryBatchFanout is the per-request batch path, where a batch goes
// after a batch-level failure: a request-level worker pool over
// independent QueryCtx calls.
func (t *Table) QueryBatchFanout(ctx context.Context, ndp NDP, reqs []BatchRequest, opts QueryOptions) []BatchResult {
	if opts.Stats != nil {
		opts.Stats.Pipelined = false
	}
	out := make([]BatchResult, len(reqs))
	workers := opts.workerCount(len(reqs))
	per := opts
	per.Workers = 1
	// A shared PhaseTimes across concurrent requests would race; batch
	// phase breakdowns belong to the per-request spans of the caller.
	per.Phases = nil
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := t.QueryCtx(ctx, ndp, reqs[i].Idx, reqs[i].Weights, per)
				out[i] = BatchResult{Res: res, Err: err}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
