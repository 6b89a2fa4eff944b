package core

import (
	"context"
	"sync"

	"secndp/internal/field"
	"secndp/internal/memory"
)

// NDP is the untrusted near-data processing unit's compute contract: the
// operations a Rank-NDP PU performs over ciphertext resident in its memory
// (Figure 4, the right-hand column of Algorithms 4 and 5). Implementations
// see only public geometry and ciphertext bytes — no key, no plaintext —
// and need no change to the NDP's own protocol (§IV-D): HonestNDP in
// process, remote.Client and remote.ReliableClient over the wire, and
// cluster.NDP over a sharded fleet all implement it.
//
// Every method takes a context and returns an error, so a hung or failing
// transport surfaces as an error instead of blocking or panicking; an
// implementation that cannot serve an operation at all returns an error
// wrapping errors.ErrUnsupported. The NDP is untrusted: the paper's threat
// model lets it "return a malicious computation result" (§II), so callers
// check every answer's shape and verify its MAC, and tests substitute
// malicious implementations by overriding the method they attack.
type NDP interface {
	// WeightedTagSumBatch answers every sub-request req in one exchange:
	// C_res[j] = Σ_k req.Weights[k] · C[req.Idx[k]][j] mod 2^we for all
	// columns j — the SLS / pooling operation over ciphertext — and, when
	// verify is set, the NDP's half of Algorithm 5, C_Tres = Σ_k
	// req.Weights[k] · C_T[req.Idx[k]] mod q (field.Zero otherwise).
	// verify must not be set for geometries without tag placement. A
	// single query is a batch of one. A non-nil error means the whole
	// batch failed (transport trouble, no batch support) and decided
	// nothing; problems with one sub-request land in its
	// NDPBatchResult.Err instead. Every answered Sums is fresh, shares
	// storage with no other result, and passes to the caller, which may
	// overwrite it: the cluster merge and the core join both accumulate in
	// place. The implementation keeps no reference to it.
	WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error)
	// WeightedSumElem returns the scalar Σ_k weights[k] · C[idx[k]][jdx[k]]
	// mod 2^we — Algorithm 4's element-indexed form.
	WeightedSumElem(ctx context.Context, geo Geometry, idx, jdx []int, weights []uint64) (uint64, error)
}

// HonestNDP is the faithful NDP implementation operating on an untrusted
// memory space. Note the operations are *identical* to what an unprotected
// NDP would run on plaintext — SecNDP requires no NDP hardware or protocol
// change (§IV-D).
type HonestNDP struct {
	Mem *memory.Space
}

var _ NDP = (*HonestNDP)(nil)

// gatherAhead is how many rows a gather resolves — and so how many cache
// misses it puts in flight — before it folds the first of them. The
// target is the core's memory-level parallelism: ten to twelve line-fill
// buffers on current x86 cores, against four data lines plus one tag line
// per 256-byte row, so eight rows already keep every buffer busy and the
// hardware queues the rest: cold rows cost 466 ns at 1, 320 at 2, and
// 190–220 at 4, 8, 16 and 32 alike (DESIGN.md §11). It also has to divide
// ctxCheckStride, which keeps the batch walk's cancellation cadence.
const gatherAhead = 8

// gather is the one row walk of the software NDP: for count requests, in
// groups of gatherAhead, resolve → prefetch → accumulate. Pass 1 asks at
// for request k's row (and byte offset into it), range-checks it,
// computes its addresses from the hoisted base and stride, and resolves
// dataLen bytes of row data and, with tags, the row's tag to spans of the
// backing pages (memory.View.Span), which prefetches their lines; nothing
// in it waits on memory, so the group's misses overlap. Pass 2 hands each
// request's data and tag to fold, reading into pooled scratch where a
// span was nil (a row straddling a page, a never-written page, the ECC
// side band). The slices fold receives are read-only and dead once it
// returns. dataLen 0 gathers tags alone. The only error is ctx's, checked
// every ctxCheckStride requests; WeightedSum and TagSum, which carry no
// context, have none to handle.
//
// Pass 1 must not call anything that takes the Layout by value and is not
// inlined: the copy's store-forward stall waits for the previous row's
// miss and serialises the walk (see memory.Layout.RowAddr). An
// out-of-range row panics with RowAddr's own value, which the batch
// pipeline and the cluster's replica and mirror calls recover; the
// deferred Close releases the view's read lock on the way out.
func (n *HonestNDP) gather(ctx context.Context, geo Geometry, count, dataLen int, tags bool,
	at func(k int) (row int, off uint64), fold func(k int, data, tag []byte)) error {
	lay := geo.Layout
	numRows, base, stride := lay.NumRows, lay.Base, lay.RowStride()
	// A tag lives at tagBase + row·tagStride; in the ECC side band that
	// is its key (the row's data address) and there is no page to span.
	var tagBase, tagStride uint64
	ecc := false
	if tags {
		switch lay.Placement {
		case memory.TagColoc:
			tagBase, tagStride = base+uint64(lay.RowBytes), stride
		case memory.TagSep:
			tagBase, tagStride = lay.TagBase, memory.TagBytes
		case memory.TagECC:
			tagBase, tagStride, ecc = base, stride, true
		default:
			panic("core: tag gather with no tag placement")
		}
	}
	bp, scratch := getByteScratch(dataLen + memory.TagBytes)
	defer putByteScratch(bp)
	rowBuf, tagBuf := scratch[:dataLen], scratch[dataLen:]
	v := n.Mem.OpenView()
	defer v.Close()
	var data, tag [gatherAhead][]byte
	var dataAddr, tagAddr [gatherAhead]uint64
	for lo := 0; lo < count; lo += gatherAhead {
		if lo%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		g := min(gatherAhead, count-lo)
		for j := 0; j < g; j++ {
			row, off := at(lo + j)
			if uint(row) >= uint(numRows) {
				lay.RowAddr(row) // panics
			}
			if dataLen > 0 {
				dataAddr[j] = base + uint64(row)*stride + off
				data[j] = v.Span(dataAddr[j], dataLen)
			}
			if tags {
				tagAddr[j] = tagBase + uint64(row)*tagStride
				if !ecc {
					tag[j] = v.Span(tagAddr[j], memory.TagBytes)
				}
			}
		}
		for j := 0; j < g; j++ {
			d, t := data[j], tag[j]
			if d == nil && dataLen > 0 {
				v.ReadInto(rowBuf, dataAddr[j])
				d = rowBuf
			}
			if t == nil && tags {
				if ecc {
					v.ReadECCInto(tagBuf, tagAddr[j])
				} else {
					v.ReadInto(tagBuf, tagAddr[j])
				}
				t = tagBuf
			}
			fold(lo+j, d, t)
		}
	}
	return nil
}

// gatherOne is the one-request arm of WeightedTagSumBatchInto: one walk
// over idx as given, no plan, each row folded into sums straight from its
// ciphertext bytes and, with tags, its tag resolved beside its data and
// folded into the returned tag sum. sums == nil gathers the tags alone.
// The rows are the caller's to check; the only error is ctx's.
func (n *HonestNDP) gatherOne(ctx context.Context, geo Geometry, idx []int, weights, sums []uint64, tags bool) (field.Elem, error) {
	r := geo.ringOf()
	var tagAcc field.Acc
	dataLen, fold := geo.Layout.RowBytes, func(k int, data, tag []byte) {
		r.ScaleAccumBytes(sums, weights[k], data)
		if tags {
			tagAcc.AddMulUint64(field.FromBytes(tag), weights[k])
		}
	}
	if sums == nil {
		dataLen, fold = 0, func(k int, _, tag []byte) { tagAcc.AddMulUint64(field.FromBytes(tag), weights[k]) }
	}
	err := n.gather(ctx, geo, len(idx), dataLen, tags, func(k int) (int, uint64) { return idx[k], 0 }, fold)
	return tagAcc.Sum(), err
}

// WeightedSum is the one-request gather's data half without a context.
func (n *HonestNDP) WeightedSum(geo Geometry, idx []int, weights []uint64) []uint64 {
	acc := make([]uint64, geo.Params.M)
	n.gatherOne(context.Background(), geo, idx, weights, acc, false)
	return acc
}

// TagSum is the one-request gather's tag half without a context, C_Tres =
// Σ_k weights[k] · C_T[idx[k]] mod q: a walk over the tags alone, which is
// what re-encryption's per-row MAC check needs.
func (n *HonestNDP) TagSum(geo Geometry, idx []int, weights []uint64) field.Elem {
	sum, _ := n.gatherOne(context.Background(), geo, idx, weights, nil, true)
	return sum
}

// WeightedSumElem implements NDP: the same walk over one element per
// request instead of one row. The columns are the caller's to check.
func (n *HonestNDP) WeightedSumElem(ctx context.Context, geo Geometry, idx, jdx []int, weights []uint64) (uint64, error) {
	r := geo.ringOf()
	eb := r.Bytes()
	var acc uint64
	err := n.gather(ctx, geo, len(idx), eb, false,
		func(k int) (int, uint64) { return idx[k], uint64(jdx[k] * eb) },
		func(k int, data, _ []byte) {
			var e uint64
			for b, x := range data {
				e |= uint64(x) << (8 * b)
			}
			acc += weights[k] * e
		})
	if err != nil {
		return 0, err
	}
	return r.Reduce(acc), nil
}

// Memory returns the untrusted memory the NDP answers from.
func (n *HonestNDP) Memory() *memory.Space { return n.Mem }

// NDPBatchResult is one sub-request's answer from a batched NDP call.
// Err is set (and Sums nil) when that sub-request was malformed; other
// sub-requests in the batch are unaffected.
type NDPBatchResult struct {
	Sums []uint64
	Tag  field.Elem
	Err  error
}

// WeightedTagSumBatch implements NDP. Distinct rows referenced by
// several sub-requests are read once and folded into every requester's
// accumulator — the untrusted half of the cross-request dedup
// that the trusted side mirrors for pad generation. It is
// WeightedTagSumBatchInto over fresh storage, whose ownership passes to
// the caller with the results.
func (n *HonestNDP) WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error) {
	// Only the results and their sums slab are the caller's, fresh each
	// call; the skip marks and tag accumulators come from a pool and go
	// back to it.
	buf := ndpScratch.Get().(*BatchBuffer)
	res, err := n.WeightedTagSumBatchInto(ctx, geo, reqs, verify, buf)
	buf.out, buf.slab = nil, nil
	ndpScratch.Put(buf)
	return res, err
}

// ndpScratch pools WeightedTagSumBatch's per-call working storage.
var ndpScratch = sync.Pool{New: func() any { return new(BatchBuffer) }}

// BatchBuffer is caller-owned result storage for
// HonestNDP.WeightedTagSumBatchInto: the result vector, the per-request
// skip marks, the slab backing every sub-request's sums and the tag
// accumulators. Each call grows them to the batch's size and overwrites
// them, so a long-lived owner (a server connection) answers a steady
// stream of batches without allocating result storage per batch. The zero
// value is ready to use.
type BatchBuffer struct {
	out  []NDPBatchResult
	skip []bool
	slab []uint64
	tags []field.Acc
}

// resized returns s at length n with every element zeroed, reallocating
// only when the capacity is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grown is resized without the zeroing, for slices whose every use
// writes each element it reads.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// WeightedTagSumBatchInto is WeightedTagSumBatch writing into buf. The
// results, and the sums they point at, live in buf and are valid until
// the next call with the same buf. A batch with exactly one well-formed
// request whose walk is short (Geometry.overlapped) gathers over its
// indices as given (gatherOne) — the shape of every single query, on the
// shard server too — and any other batch over its plan's distinct rows.
func (n *HonestNDP) WeightedTagSumBatchInto(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool, buf *BatchBuffer) ([]NDPBatchResult, error) {
	buf.out = resized(buf.out, len(reqs))
	for i, req := range reqs {
		buf.out[i].Err = checkQuery(geo, req.Idx, req.Weights)
	}
	return n.answer(ctx, geo, reqs, verify, buf)
}

// answer is WeightedTagSumBatchInto past validation: buf.out holds one
// zeroed result per request but for the Err of each rejected one, and
// every other request is answered.
func (n *HonestNDP) answer(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool, buf *BatchBuffer) ([]NDPBatchResult, error) {
	out := buf.out
	valid, lone := 0, 0
	for i := range out {
		if out[i].Err == nil {
			valid, lone = valid+1, i
		}
	}
	m := geo.Params.M
	// One zeroed slab backs every sub-request's sum vector.
	buf.slab = resized(buf.slab, valid*m)
	slab := buf.slab
	next := 0
	for i := range out {
		if out[i].Err == nil {
			out[i].Sums = slab[next*m : (next+1)*m : (next+1)*m]
			next++
		}
	}
	if valid == 1 && !geo.overlapped(len(reqs[lone].Idx)) {
		var err error
		out[lone].Tag, err = n.gatherOne(ctx, geo, reqs[lone].Idx, reqs[lone].Weights, out[lone].Sums, verify)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	buf.skip = resized(buf.skip, len(reqs))
	skip := buf.skip
	for i := range out {
		skip[i] = out[i].Err != nil
	}
	plan := planBatch(reqs, skip, geo.Layout.NumRows)
	defer plan.release()
	var tagAccs []field.Acc
	if verify {
		buf.tags = resized(buf.tags, len(reqs))
		tagAccs = buf.tags
	}
	r := geo.ringOf()
	// A row's data and tag resolve in the same pass, so the tag line is in
	// flight with the data it verifies.
	err := n.gather(ctx, geo, len(plan.rows), geo.Layout.RowBytes, verify,
		func(pi int) (int, uint64) { return plan.rows[pi].row, 0 },
		func(pi int, data, tag []byte) {
			pr := &plan.rows[pi]
			var ct field.Elem
			if verify {
				ct = field.FromBytes(tag)
			}
			// Every requester folds the row straight from its ciphertext
			// bytes; a shared row is gathered once and folded once per use.
			for _, u := range pr.uses {
				r.ScaleAccumBytes(out[u.req].Sums, u.weight, data)
				if verify {
					tagAccs[u.req].AddMulUint64(ct, u.weight)
				}
			}
		})
	if err != nil {
		return nil, err
	}
	if verify {
		for i := range out {
			if !skip[i] {
				out[i].Tag = tagAccs[i].Sum()
			}
		}
	}
	return out, nil
}
