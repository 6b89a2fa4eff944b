package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"secndp/internal/core"
	"secndp/internal/ring"
)

// Zero-copy framing for the wire protocol's hot paths. Requests and
// responses are marshaled into reusable byte frames with
// binary.AppendUvarint and ring lanes and handed to the transport as one
// gather write, instead of one bufio call (and its per-call bounds
// checks) per value.
//
// Frames are owned by their connection: the client's lives under c.mu, the
// server's under the per-connection serve loop, so neither needs a pool or
// any synchronization, and a steady request stream marshals and parses
// with no per-request allocation once the frames have grown to the
// workload's high-water mark.

// appendGeometry marshals a geometry: eight uvarints, readGeometry's
// order.
func appendGeometry(b []byte, g core.Geometry) []byte {
	for _, v := range []uint64{
		uint64(g.Layout.Placement), g.Layout.Base, g.Layout.TagBase,
		uint64(g.Layout.NumRows), uint64(g.Layout.RowBytes),
		uint64(g.Params.We), uint64(g.Params.M), uint64(g.Params.ChecksumSubstrings),
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// appendBatchSub marshals one batch sub-request. It carries the index and
// weight counts separately: a malformed sub-request (mismatched lengths)
// must survive framing so the server can answer it with a per-sub error
// instead of desyncing the stream.
func appendBatchSub(b []byte, idx []int, weights []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	b = binary.AppendUvarint(b, uint64(len(weights)))
	for _, wt := range weights {
		b = binary.AppendUvarint(b, wt)
	}
	return b
}

// appendBatchRequest marshals an opBatch request body (everything after
// the op byte): geometry, a flags word (batchFlag* bits), the sub-request
// count, then each sub-request in appendBatchSub's form.
func appendBatchRequest(b []byte, geo core.Geometry, reqs []core.BatchRequest, flags uint64) []byte {
	b = appendGeometry(b, geo)
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(len(reqs)))
	for i := range reqs {
		b = appendBatchSub(b, reqs[i].Idx, reqs[i].Weights)
	}
	return b
}

// appendPackedBatchResponse marshals an opBatch reply's payload (after
// the batch's own statusOK): one status byte per sub-request, then either
// its sums — the uvarint count and count lanes of rg, we/8 little-endian
// bytes each, the width the ciphertext is stored in — and, when
// verifying, its 16-byte tag, or its error message. Per-sub-request
// errors ride inside an overall-OK reply — only batch-level problems use
// the outer statusErr, so one bad sub-request cannot mask the rest of the
// batch.
func appendPackedBatchResponse(b []byte, res []core.NDPBatchResult, verify bool, rg ring.Ring) []byte {
	for i := range res {
		if res[i].Err != nil {
			b = append(b, statusErr)
			msg := res[i].Err.Error()
			b = binary.AppendUvarint(b, uint64(len(msg)))
			b = append(b, msg...)
			continue
		}
		b = append(b, statusOK)
		b = binary.AppendUvarint(b, uint64(len(res[i].Sums)))
		b = rg.AppendElems(b, res[i].Sums)
		if verify {
			tb := res[i].Tag.Bytes()
			b = append(b, tb[:]...)
		}
	}
	return b
}

// growInts returns s resized to length n, reallocating only when the
// capacity is short. Contents are undefined.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growU64s is growInts for uint64 slices.
func growU64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// connFrames is one server connection's reusable parse, compute and
// marshal state: the sub-request vectors, the batch results and the
// response frame grow to the connection's high-water mark once and are
// reused for every subsequent request. The parsed slices and the batch results are
// valid until the next request on the connection; the serve loop
// marshals each reply before reading the next request, so nothing
// outlives its frame.
type connFrames struct {
	// Batch sub-request backing. subs is resliced per batch; each
	// sub-request's idx/weights reuse the parallel capacity arrays.
	subs   []core.BatchRequest
	subIdx [][]int
	subW   [][]uint64

	batch core.BatchBuffer // opBatch results (sums slab, tags)

	out []byte // response marshal frame

	// Pending trace context from an opTraceCtx prefix: consumed by the
	// next operation on this connection (see Server.serveOne).
	traceID      uint64
	parentSpan   uint64
	tracePending bool
}

// readBatchSub parses one sub-request into slot i's reusable vectors,
// decoding the indices and weights in bulk from the read buffer
// (readUvarints): the bytes consumed and the errors are the package-level
// readBatchSub's.
func (f *connFrames) readBatchSub(r *bufio.Reader, i int) ([]int, []uint64, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, nil, err
	}
	if n > maxVectorLen {
		return nil, nil, fmt.Errorf("remote: sub-request of %d rows exceeds limit", n)
	}
	f.subIdx[i] = growInts(f.subIdx[i], int(n))
	idx := f.subIdx[i]
	if err := readUvarints(r, idx); err != nil {
		return nil, nil, err
	}
	m, err := readUvarint(r)
	if err != nil {
		return nil, nil, err
	}
	if m > maxVectorLen {
		return nil, nil, fmt.Errorf("remote: sub-request of %d weights exceeds limit", m)
	}
	f.subW[i] = growU64s(f.subW[i], int(m))
	weights := f.subW[i]
	if err := readUvarints(r, weights); err != nil {
		return nil, nil, err
	}
	return idx, weights, nil
}

// readBatchRequest parses an opBatch request body into the frame's
// reusable sub-request vectors — the in-place form of the package-level
// readBatchRequest.
func (f *connFrames) readBatchRequest(r *bufio.Reader) (core.Geometry, []core.BatchRequest, uint64, error) {
	geo, err := readGeometry(r)
	if err != nil {
		return core.Geometry{}, nil, 0, err
	}
	flags, err := readUvarint(r)
	if err != nil {
		return core.Geometry{}, nil, 0, err
	}
	count, err := readUvarint(r)
	if err != nil {
		return core.Geometry{}, nil, 0, err
	}
	if count > maxBatchSubs {
		return core.Geometry{}, nil, 0, fmt.Errorf("remote: batch of %d sub-requests exceeds limit", count)
	}
	n := int(count)
	if cap(f.subs) < n {
		f.subs = make([]core.BatchRequest, n)
	}
	f.subs = f.subs[:n]
	// subIdx/subW keep their full length permanently; only ever grow.
	for len(f.subIdx) < n {
		f.subIdx = append(f.subIdx, nil)
	}
	for len(f.subW) < n {
		f.subW = append(f.subW, nil)
	}
	for i := 0; i < n; i++ {
		idx, weights, err := f.readBatchSub(r, i)
		if err != nil {
			return core.Geometry{}, nil, 0, err
		}
		f.subs[i] = core.BatchRequest{Idx: idx, Weights: weights}
	}
	return geo, f.subs, flags, nil
}
