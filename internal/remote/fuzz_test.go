package remote

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/ring"
)

// The wire protocol sits on the trust boundary: the server parses bytes from
// untrusted clients, and the client parses bytes from the untrusted server.
// These targets assert the one property both directions must hold under
// arbitrary input — parsers return errors, they never panic — plus
// round-trip consistency for anything that does parse.

func FuzzReadGeometry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80}) // truncated uvarint
	f.Add(appendGeometry(nil, core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readGeometry(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Whatever parsed must survive a write/read round trip unchanged.
		g2, err := readGeometry(bufio.NewReader(bytes.NewReader(appendGeometry(nil, g))))
		if err != nil {
			t.Fatalf("re-read of serialized geometry failed: %v", err)
		}
		if g2 != g {
			t.Fatalf("geometry round trip: %+v != %+v", g2, g)
		}
	})
}

// FuzzClientResponse feeds arbitrary bytes to the client-side response
// parsers — the path a malicious or fault-corrupted server controls: a
// status, then the remaining bytes read as two 8-bit lanes and as a tag.
func FuzzClientResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{statusOK, 0x02, 0x07, 0x09})
	f.Add([]byte{statusErr, 0x03, 'b', 'a', 'd'})
	f.Add([]byte{0x42}) // corrupt status byte
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		if err := readStatus(r); err != nil {
			return
		}
		readLanes(bufio.NewReader(bytes.NewReader(data[1:])), ring.MustNew(8), make([]uint64, 2))
		readTagResponse(bufio.NewReader(bytes.NewReader(data[1:])))
	})
}

// FuzzServeOne runs the full server request loop over an arbitrary byte
// stream. The server faces untrusted clients directly, so no input may
// panic it or make it allocate unboundedly.
func FuzzServeOne(f *testing.F) {
	f.Add([]byte{opPing})
	f.Add([]byte{opWriteBlob, 0x10, 0x02, 0xAB, 0xCD, opPing})
	f.Add([]byte{0x99}) // unknown op
	// A retired single-query frame as the previous protocol's clients
	// wrote it: opcode 1, the geometry (TagSep, rows 16 × 128 bytes,
	// we 32, m 32), then the query (rows 1 and 5, weights 2 and 3). The
	// server answers the op byte as unknown and reads the body as ops.
	f.Add([]byte{0x01, 0x02, 0x80, 0x80, 0x04, 0x80, 0x80, 0x80, 0x04, 0x10, 0x80, 0x01,
		0x20, 0x20, 0x00, 0x02, 0x01, 0x05, 0x02, 0x03})
	f.Add(appendBatchRequest([]byte{opBatch}, core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}, []core.BatchRequest{{Idx: []int{1, 5}, Weights: []uint64{2, 3}}, {}}, batchFlagVerify))
	f.Add([]byte{opCaps, opPing})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer(memory.NewSpace())
		r := bufio.NewReader(bytes.NewReader(data))
		out := bufio.NewWriter(io.Discard)
		fr := &connFrames{}
		for i := 0; i < 64; i++ { // bound work per input
			if err := s.serveOne(r, out, fr); err != nil {
				break
			}
		}
	})
}

// FuzzReadBatchRequest hammers the server-side batch parser — the largest
// frame an untrusted client controls. No input may panic it or make it
// allocate past the advertised limits; whatever parses must survive a
// write/read round trip.
func FuzzReadBatchRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})                                                       // truncated geometry
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge uvarint
	geo := core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}
	f.Add(appendBatchRequest(nil, geo, []core.BatchRequest{
		{Idx: []int{1, 5}, Weights: []uint64{2, 3}},
		{},                                       // empty sub-request
		{Idx: []int{9}, Weights: []uint64{4, 7}}, // mismatched lengths must frame
	}, batchFlagVerify|batchFlagPacked))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := bufio.NewReader(bytes.NewReader(data))
		g, reqs, flags, err := readBatchRequest(ref)
		// The server's in-place parser, through the smallest read buffer
		// over a reader that returns half of each request, so values
		// straddle buffer refills: the same answer, the same error and the
		// same bytes consumed as the reference.
		fr := &connFrames{}
		in := bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(data)), 16)
		fg, freqs, fflags, ferr := fr.readBatchRequest(in)
		switch {
		case (err == nil) != (ferr == nil):
			t.Fatalf("reference error %v, in-place error %v", err, ferr)
		case err != nil && err.Error() != ferr.Error():
			t.Fatalf("reference error %q, in-place error %q", err, ferr)
		case err == nil && (fg != g || fflags != flags || !batchRequestsEqual(freqs, reqs)):
			t.Fatal("in-place parse differs from the reference")
		}
		if rest, frest := unread(ref), unread(in); rest != frest {
			t.Fatalf("reference left %d bytes unread, in-place parse %d", rest, frest)
		}
		if err != nil {
			return
		}
		if len(reqs) > maxBatchSubs {
			t.Fatalf("parsed batch of %d sub-requests exceeds the advertised limit", len(reqs))
		}
		for i := range reqs {
			if len(reqs[i].Idx) > maxVectorLen || len(reqs[i].Weights) > maxVectorLen {
				t.Fatalf("sub-request %d exceeds the per-vector limit", i)
			}
		}
		g2, reqs2, flags2, err := readBatchRequest(
			bufio.NewReader(bytes.NewReader(appendBatchRequest(nil, g, reqs, flags))))
		if err != nil {
			t.Fatalf("re-read of serialized batch request failed: %v", err)
		}
		if g2 != g || flags2 != flags || len(reqs2) != len(reqs) {
			t.Fatal("batch request header round trip mismatch")
		}
		for i := range reqs {
			if len(reqs2[i].Idx) != len(reqs[i].Idx) || len(reqs2[i].Weights) != len(reqs[i].Weights) {
				t.Fatalf("sub-request %d shape round trip mismatch", i)
			}
			for k := range reqs[i].Idx {
				if reqs2[i].Idx[k] != reqs[i].Idx[k] {
					t.Fatal("sub-request index round trip mismatch")
				}
			}
			for k := range reqs[i].Weights {
				if reqs2[i].Weights[k] != reqs[i].Weights[k] {
					t.Fatal("sub-request weight round trip mismatch")
				}
			}
		}
	})
}

// batchRequestsEqual reports whether two parsed batches carry the same
// sub-requests; a nil and an empty vector are the same.
func batchRequestsEqual(a, b []core.BatchRequest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Idx, b[i].Idx) || !slices.Equal(a[i].Weights, b[i].Weights) {
			return false
		}
	}
	return true
}

// unread counts the bytes a parse left in r.
func unread(r *bufio.Reader) int {
	rest, _ := io.ReadAll(r)
	return len(rest)
}

// FuzzReadBatchResponse feeds arbitrary bytes to the client-side batch
// reply parser — the path a malicious or fault-corrupted server controls.
// The bytes are read as a reply whose lane width is taken from lane over
// {1, 2, 4, 8} bytes, and whatever parses round-trips through the
// server's marshaller.
func FuzzReadBatchResponse(f *testing.F) {
	f.Add(uint16(0), uint8(0), false, uint8(0), []byte{})
	f.Add(uint16(1), uint8(2), false, uint8(0), []byte{statusOK, 0x02, 0x07, 0x09})
	f.Add(uint16(1), uint8(3), false, uint8(0), []byte{statusOK, 0x02, 0x07, 0x09}) // wrong length: per-sub error
	f.Add(uint16(1), uint8(2), false, uint8(0), []byte{statusErr, 0x03, 'b', 'a', 'd'})
	f.Add(uint16(2), uint8(1), true, uint8(0), []byte{statusOK, 0x01, 0x05})
	f.Add(uint16(1), uint8(1), false, uint8(0), []byte{0x42}) // corrupt sub-status byte
	res := []core.NDPBatchResult{
		{Sums: []uint64{7, 9, 1 << 40}},
		{Err: io.ErrUnexpectedEOF},
	}
	for lane := uint8(0); lane < 4; lane++ {
		rg := laneRing(lane)
		f.Add(uint16(2), uint8(3), true, lane, appendPackedBatchResponse(nil, res, true, rg))
		// A 3-sum sub-result read for 2 columns is drained, and the one
		// after it still parses.
		f.Add(uint16(2), uint8(2), false, lane, appendPackedBatchResponse(nil,
			[]core.NDPBatchResult{{Sums: []uint64{1, 2, 3}}, {Sums: []uint64{4, 5}}}, false, rg))
	}
	f.Add(uint16(1), uint8(4), false, uint8(2), []byte{statusOK, 0x04, 0x01, 0x02}) // truncated lanes
	// A reply one sub-result short of the batch it answers.
	f.Add(uint16(3), uint8(3), true, uint8(2), appendPackedBatchResponse(nil, res, true, laneRing(2)))
	f.Fuzz(func(t *testing.T, count uint16, m uint8, verify bool, lane uint8, data []byte) {
		n := int(count) % (maxBatchSubs + 2) // cover the in-range and over-limit shapes
		rg := laneRing(lane)
		read := func(b []byte) ([]core.NDPBatchResult, error) {
			return readPackedBatchResponse(bufio.NewReader(bytes.NewReader(b)), n, int(m), verify, rg)
		}
		res, err := read(data)
		if err != nil {
			return
		}
		if len(res) != n {
			t.Fatalf("parsed %d sub-results for a batch of %d", len(res), n)
		}
		for i := range res {
			if res[i].Err == nil && len(res[i].Sums) != int(m) {
				t.Fatalf("sub-result %d: %d sums accepted for %d columns", i, len(res[i].Sums), m)
			}
		}
		// Whatever parsed must re-serialize and re-parse to the same shape.
		res2, err := read(appendPackedBatchResponse(nil, res, verify, rg))
		if err != nil {
			t.Fatalf("re-read of serialized batch response failed: %v", err)
		}
		for i := range res {
			if (res[i].Err == nil) != (res2[i].Err == nil) {
				t.Fatalf("sub-result %d error-ness round trip mismatch", i)
			}
			if res[i].Err != nil {
				continue
			}
			if len(res2[i].Sums) != len(res[i].Sums) {
				t.Fatalf("sub-result %d sums length round trip mismatch", i)
			}
			for k := range res[i].Sums {
				if res2[i].Sums[k] != res[i].Sums[k] {
					t.Fatal("sub-result sums round trip mismatch")
				}
			}
			if verify && !res2[i].Tag.Equal(res[i].Tag) {
				t.Fatal("sub-result tag round trip mismatch")
			}
		}
	})
}

// laneRing maps a fuzz byte to a packed lane width of 1, 2, 4 or 8 bytes.
func laneRing(lane uint8) ring.Ring {
	return ring.MustNew(8 << (lane % 4))
}
