package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
)

// This file is the batched query pipeline: the trusted-side half of serving
// a whole []BatchRequest as one coalesced operation. Three levers, all
// enabled by the scheme's linearity:
//
//  1. Cross-request pad dedup. DLRM-style batches reference the same hot
//     embedding rows from many sub-requests. The planner collapses the
//     batch to its distinct rows, each row's OTP pad (and tag pad) is
//     generated once, and the shared pad is scattered into every
//     requester's accumulator — turning B×L AES pad generations into
//     one per distinct row.
//  2. One NDP exchange. The whole batch rides a single WeightedTagSumBatch call
//     (one wire round-trip for remote NDPs) instead of N.
//
// Verification stays per request: each joined result's checksum is compared
// with its own combined tag, exactly as QueryCtx does.

// BatchStats reports how much coalescing one QueryBatchCtx call achieved.
// Populated when QueryOptions.Stats is non-nil.
type BatchStats struct {
	// Requests is the number of sub-requests in the batch.
	Requests int
	// RowRefs counts row references across all well-formed sub-requests.
	RowRefs int
	// DistinctRows counts rows after cross-request dedup; the pad dedup
	// hit ratio is 1 − DistinctRows/RowRefs.
	DistinctRows int
	// WireOps is the number of NDP exchanges used (1 on the pipelined
	// path; the fan-out path leaves it 0 — its per-request calls are
	// counted by the transport, not here).
	WireOps int
	// Pipelined reports whether the coalesced pipeline served the batch
	// (false: per-request fan-out, e.g. the NDP lacks batch support).
	Pipelined bool
}

// batchUse is one sub-request's appearance on a planned row's scatter
// list.
type batchUse struct {
	req    int32
	weight uint64
}

// plannedRow is one distinct row and every (request, weight) that
// references it.
type plannedRow struct {
	row  int
	uses []batchUse
}

// batchPlan is the deduplicated access plan for a batch: distinct rows in
// first-appearance order, each carrying its scatter list.
type batchPlan struct {
	rows []plannedRow
	refs int // total row references planned (post-skip, pre-dedup)
	scr  *batchPlanScratch
}

// batchPlanScratch is the pooled backing store of one batchPlan: the row
// list, one arena holding every scatter list, and the per-row use counts
// of the planner's first pass. None of it holds pointers beyond the pooled
// arrays themselves, so recycling needs no clearing.
type batchPlanScratch struct {
	rows   []plannedRow
	uses   []batchUse
	counts []int32
}

var planScratch = sync.Pool{New: func() any { return new(batchPlanScratch) }}

// release recycles the plan's backing store. The caller must be done with
// every scatter list; the plan is unusable afterwards.
func (p *batchPlan) release() {
	if p.scr != nil {
		planScratch.Put(p.scr)
		p.scr, p.rows = nil, nil
	}
}

// maxDenseSlots bounds the row space for which the planner's row→slot
// lookup uses a pooled dense table instead of a map: one array index per
// reference, with only the touched entries reset afterwards.
const maxDenseSlots = 1 << 16

// planBatch scans the batch and collapses it to distinct rows. Duplicate
// references to a row from the same sub-request coalesce into one use with
// the summed weight — exact for the ring side (2^we divides 2^64) and kept
// exact for the field side by splitting the use when the uint64 sum would
// carry (a carried sum is no longer the same scalar mod q). Sub-requests
// flagged in skip contribute nothing. numRows is the table's row count
// (every non-skipped index must already be validated against it); pass 0
// to force the map-based lookup.
func planBatch(reqs []BatchRequest, skip []bool, numRows int) batchPlan {
	var plan batchPlan
	total := 0
	for ri := range reqs {
		if skip == nil || !skip[ri] {
			total += len(reqs[ri].Idx)
		}
	}
	scr := planScratch.Get().(*batchPlanScratch)
	if cap(scr.rows) < total {
		scr.rows = make([]plannedRow, 0, total)
	}
	if cap(scr.uses) < total {
		scr.uses = make([]batchUse, 0, total)
	}
	if cap(scr.counts) < total {
		scr.counts = make([]int32, 0, total)
	}
	plan.rows = scr.rows[:0]
	plan.scr = scr
	counts := scr.counts[:0]
	var (
		slots   []int32
		slotTok *[]int32
		slotMap map[int]int32
	)
	if numRows > 0 && numRows <= maxDenseSlots {
		slotTok, slots = getSlotScratch(numRows)
	} else {
		slotMap = make(map[int]int32, total)
	}
	lookup := func(row int) int32 {
		if slots != nil {
			return slots[row]
		}
		if v, ok := slotMap[row]; ok {
			return v
		}
		return -1
	}
	// Pass 1: assign slots in first-appearance order and count each
	// distinct row's references — the capacity bound its scatter list is
	// carved with, so pass 2 appends never allocate.
	for ri := range reqs {
		if skip != nil && skip[ri] {
			continue
		}
		for _, row := range reqs[ri].Idx {
			plan.refs++
			si := lookup(row)
			if si < 0 {
				si = int32(len(plan.rows))
				if slots != nil {
					slots[row] = si
				} else {
					slotMap[row] = si
				}
				plan.rows = append(plan.rows, plannedRow{row: row})
				counts = append(counts, 0)
			}
			counts[si]++
		}
	}
	// Carve every scatter list out of one shared arena.
	arena := scr.uses[:0]
	off := 0
	for i := range plan.rows {
		c := int(counts[i])
		plan.rows[i].uses = arena[off : off : off+c]
		off += c
	}
	// Pass 2: fill the lists. Requests are scanned one at a time, so a
	// row's uses from the current request are always the tail of its list
	// and in-request duplicates coalesce there.
	for ri := range reqs {
		if skip != nil && skip[ri] {
			continue
		}
		req := &reqs[ri]
		for k, row := range req.Idx {
			w := req.Weights[k]
			si := lookup(row)
			uses := plan.rows[si].uses
			if n := len(uses); n > 0 && uses[n-1].req == int32(ri) {
				if sum, carry := bits.Add64(uses[n-1].weight, w, 0); carry == 0 {
					uses[n-1].weight = sum
					continue
				}
			}
			plan.rows[si].uses = append(uses, batchUse{req: int32(ri), weight: w})
		}
	}
	if slotTok != nil {
		// Restore the all−1 invariant before pooling the table back:
		// only the entries this plan touched.
		for i := range plan.rows {
			slots[plan.rows[i].row] = -1
		}
		putSlotScratch(slotTok)
	}
	return plan
}

// batchTileRows bounds how many distinct rows' pads are resident at once
// during the batched OTP sweep, so arbitrarily large batches run in
// constant extra memory.
const batchTileRows = 512

// otpBatch computes every sub-request's OTP share vector (and, when
// verifying, tag-pad field sum) from a deduplicated plan, the OTP PU
// mirroring the NDP PU (§V-C): each distinct row's pad is generated once,
// as packed keystream bytes into a pooled per-tile arena, and folded into
// every requester's accumulator with the kernel the NDP folds ciphertext
// with (Ring.ScaleAccumBytes). Generation parallelizes across the worker
// pool tile by tile, each worker range drawing its tag pads with one
// TagPads call; the fold is serial, since rows of one sub-request share
// its accumulator. The shares land in ws (accs, and tags when verifying),
// whose accumulator arena stays checked out until ws is released.
func (t *Table) otpBatch(ctx context.Context, plan batchPlan, ws *walkScratch, verify bool, opts QueryOptions) error {
	m := t.geo.Params.M
	skip := ws.skip
	valid := 0
	for i := range skip {
		if !skip[i] {
			valid++
		}
	}
	// All accumulators live in one pooled zeroed arena: one grab per
	// batch instead of one allocation per sub-request.
	var accArena []uint64
	ws.accTok, accArena = getU64Zeroed(valid * m)
	ws.accs = resized(ws.accs, len(skip))
	accs := ws.accs
	next := 0
	for i := range skip {
		if !skip[i] {
			accs[i] = accArena[next*m : (next+1)*m : (next+1)*m]
			next++
		}
	}
	ws.tags = resized(ws.tags, len(skip))
	if len(plan.rows) == 0 {
		return nil
	}
	// Per-request tag-pad sums accumulate unreduced; one fold per request
	// at the end instead of one per (row, user) visit.
	var tagAccs []field.Acc
	if verify {
		ws.tagAccs = resized(ws.tagAccs, len(skip))
		tagAccs = ws.tagAccs
	}

	rb := t.geo.Params.RowBytes()
	nTile := min(batchTileRows, len(plan.rows))
	bp, arena := getByteScratch(nTile * (rb + otp.BlockBytes))
	defer putByteScratch(bp)
	ap, addrs := getU64Scratch(nTile)
	defer putU64Scratch(ap)
	g := &ws.gen
	*g = padGen{ctx: ctx, t: t, rows: plan.rows, addrs: addrs, rb: rb, verify: verify,
		pads: arena[:nTile*rb], tagPads: arena[nTile*rb:]}
	defer func() { *g = padGen{} }()

	workers := opts.workerCount(len(plan.rows))
	for tile := 0; tile < len(plan.rows); tile += nTile {
		cnt := min(nTile, len(plan.rows)-tile)
		w := min(workers, cnt)
		if cnt < 2*ctxCheckStride {
			w = 1
		}
		// The last range runs on this goroutine, so a serial tile spawns
		// nothing.
		chunk := (cnt + w - 1) / w
		ws.errs = resized(ws.errs, w)
		errs := ws.errs
		for s := 0; s*chunk < cnt; s++ {
			lo, hi := s*chunk, min((s+1)*chunk, cnt)
			if hi == cnt {
				errs[s] = g.run(tile, lo, hi)
				break
			}
			g.wg.Add(1)
			// The loop variables go in as arguments: captured, they would
			// move to the heap on every iteration, spawning or not.
			go func(s, tile, lo, hi int) {
				defer g.wg.Done()
				errs[s] = g.run(tile, lo, hi)
			}(s, tile, lo, hi)
		}
		g.wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for s := 0; s < cnt; s++ {
			pad := g.pads[s*rb : (s+1)*rb]
			var tp field.Elem
			if verify {
				tp = field.FromBytes(g.tagPads[s*otp.BlockBytes:])
			}
			for _, u := range plan.rows[tile+s].uses {
				t.r.ScaleAccumBytes(accs[u.req], u.weight, pad)
				if verify {
					tagAccs[u.req].AddMulUint64(tp, u.weight)
				}
			}
		}
	}
	if verify {
		for i := range ws.tags {
			ws.tags[i] = tagAccs[i].Sum()
		}
	}
	return nil
}

// padGen is one pad sweep's tile state, shared by the goroutines that
// generate a tile's ranges. It lives in the walk's pooled scratch, so a
// serial sweep allocates nothing for it.
type padGen struct {
	ctx           context.Context
	t             *Table
	rows          []plannedRow
	addrs         []uint64
	pads, tagPads []byte
	rb            int
	verify        bool
	wg            sync.WaitGroup
}

// run generates the pads (and tag pads) of rows [tile+lo, tile+hi) into
// the tile's slots [lo, hi).
func (g *padGen) run(tile, lo, hi int) error {
	t, rb := g.t, g.rb
	for s := lo; s < hi; s++ {
		if (s-lo)%ctxCheckStride == 0 {
			if err := g.ctx.Err(); err != nil {
				return err
			}
		}
		g.addrs[s] = t.geo.Layout.RowAddr(g.rows[tile+s].row)
		t.scheme.gen.PadsInto(g.pads[s*rb:(s+1)*rb], otp.DomainData, g.addrs[s], t.version)
	}
	if g.verify {
		t.scheme.gen.TagPads(g.tagPads[lo*otp.BlockBytes:hi*otp.BlockBytes], g.addrs[lo:hi], t.version)
	}
	return nil
}

// BatchWalk is one table's pipelined batch split at its NDP call
// (validate and plan → exchange → join and verify), so a caller can put
// several tables' exchanges in flight together: PlanBatch validates the
// batch and collapses it to its distinct rows, Requests is what the NDP
// must answer, Sweep runs the deduplicated OTP sweep — between the
// exchange's start and its finish, so the two overlap — and Join joins
// the answers and verifies each request. Release returns the walk's
// pooled storage once the results are consumed: every per-request slice
// the walk works in is pooled, so a walk heap-allocates only the
// results it returns.
type BatchWalk struct {
	t        *Table
	opts     QueryOptions
	out      []BatchResult
	plan     batchPlan
	s        *walkScratch
	sweepErr error
}

// walkScratch is a BatchWalk's pooled per-request working set: the
// skip marks and the valid requests of the plan stage, the sweep's
// shares, tag accumulators and worker errors, and the join's list of
// requests to verify with their combined tags. Each use regrows a slice
// to the batch's size, so a steady stream of batches allocates none of
// it.
type walkScratch struct {
	skip     []bool
	valid    []BatchRequest
	validIdx []int

	accs    [][]uint64
	accTok  *[]uint64 // the pooled arena accs point into
	tags    []field.Elem
	tagAccs []field.Acc
	errs    []error
	gen     padGen

	checked  []int
	combined []field.Elem
}

var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// release drops what the walk's slices reference — the caller's
// requests, the accumulator arena — and pools the scratch.
func (s *walkScratch) release() {
	if s.accTok != nil {
		putU64Scratch(s.accTok)
		s.accTok = nil
	}
	clear(s.valid)
	clear(s.accs)
	clear(s.errs)
	s.valid, s.accs, s.errs = s.valid[:0], s.accs[:0], s.errs[:0]
	walkPool.Put(s)
}

// PlanBatch is the walk's first stage: every request is checked (a bad
// one gets its error in the result and is left out of the exchange) and
// the batch is planned. Per-sub-request errors are byte-identical to
// QueryCtx's.
func (t *Table) PlanBatch(reqs []BatchRequest, opts QueryOptions) BatchWalk {
	w := BatchWalk{t: t, opts: opts, out: make([]BatchResult, len(reqs))}
	if opts.Verify && t.geo.Layout.Placement == memory.TagNone {
		for i := range w.out {
			w.out[i].Err = fmt.Errorf("%w; disable verification for Enc-only tables", ErrNoTags)
		}
		return w
	}
	s := walkPool.Get().(*walkScratch)
	w.s = s
	s.skip = resized(s.skip, len(reqs))
	s.valid, s.validIdx = s.valid[:0], s.validIdx[:0]
	for i := range reqs {
		if err := checkQuery(t.geo, reqs[i].Idx, reqs[i].Weights); err != nil {
			w.out[i].Err = err
			s.skip[i] = true
			continue
		}
		s.valid = append(s.valid, reqs[i])
		s.validIdx = append(s.validIdx, i)
	}
	w.plan = planBatch(reqs, s.skip, t.geo.Layout.NumRows)
	if opts.Stats != nil {
		opts.Stats.RowRefs = w.plan.refs
		opts.Stats.DistinctRows = len(w.plan.rows)
	}
	return w
}

// Requests returns the sub-requests the NDP must answer, one per valid
// request in order; empty when there is nothing to exchange. The slice
// is the walk's: valid until Release.
func (w *BatchWalk) Requests() []BatchRequest {
	if w.s == nil {
		return nil
	}
	return w.s.valid
}

// Sweep runs the OTP side of the batch: every distinct row's pad once,
// scattered into its requesters' accumulators.
func (w *BatchWalk) Sweep(ctx context.Context) {
	if len(w.Requests()) == 0 {
		return
	}
	w.sweepErr = w.t.otpBatch(ctx, w.plan, w.s, w.opts.Verify, w.opts)
}

// Join is the walk's last stage: the NDP's answers (res, one per
// Requests entry, or the exchange's batch-level error ndpErr) joined
// with the sweep's shares, then each request's MAC check. A non-nil
// error is a batch-level failure — the sweep's, the exchange's, or a
// short answer — and means nothing was decided: the caller falls back
// to per-request queries. The NDP's sum vectors are the caller's (see
// NDP.WeightedTagSumBatch), so each decrypted result overwrites its own.
func (w *BatchWalk) Join(res []NDPBatchResult, ndpErr error) ([]BatchResult, error) {
	valid := w.Requests()
	if len(valid) == 0 {
		return w.out, nil
	}
	switch {
	case w.sweepErr != nil:
		return nil, w.sweepErr
	case ndpErr != nil:
		return nil, ndpErr
	case len(res) != len(valid):
		return nil, fmt.Errorf("core: ndp answered %d of %d batch sub-requests", len(res), len(valid))
	}
	if w.opts.Stats != nil {
		w.opts.Stats.WireOps = 1
		w.opts.Stats.Pipelined = true
	}
	t, out, s := w.t, w.out, w.s
	m := t.geo.Params.M
	checked, combined := s.checked[:0], s.combined[:0]
	for vi, i := range s.validIdx {
		r := res[vi]
		if r.Err != nil {
			out[i].Err = r.Err
			continue
		}
		if len(r.Sums) != m {
			out[i].Err = fmt.Errorf("core: ndp returned %d columns, want %d", len(r.Sums), m)
			continue
		}
		t.r.AddVec(r.Sums, r.Sums, s.accs[i])
		out[i].Res = r.Sums
		if w.opts.Verify {
			checked = append(checked, i)
			combined = append(combined, field.Add(r.Tag, s.tags[i]))
		}
	}
	s.checked, s.combined = checked, combined
	if w.opts.Verify {
		t.verifyBatch(out, checked, combined)
	}
	return out, nil
}

// Release returns the plan's and the sweep's pooled storage. The walk is
// unusable afterwards; the joined results stay valid.
func (w *BatchWalk) Release() {
	w.plan.release()
	if w.s != nil {
		w.s.release()
		w.s = nil
	}
}

// verifyBatch runs Algorithm 5's MAC check for every joined sub-request:
// request i passes iff its checksum defect h(res_i) − (C_Tres_i + E_Tres_i)
// is zero over F_q — the same exact compare, with the same m/q per-request
// soundness, as QueryCtx makes. Failing requests get the same
// ErrVerification sentinel QueryCtx returns.
func (t *Table) verifyBatch(out []BatchResult, checked []int, combined []field.Elem) {
	for pos, ri := range checked {
		if !t.resultChecksum(out[ri].Res).Equal(combined[pos]) {
			out[ri] = BatchResult{Err: ErrVerification}
		}
	}
}
