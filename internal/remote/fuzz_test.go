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

func fuzzGeometryBytes(g core.Geometry) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeGeometry(w, g); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

func FuzzReadGeometry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80}) // truncated uvarint
	f.Add(fuzzGeometryBytes(core.Geometry{
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
		g2, err := readGeometry(bufio.NewReader(bytes.NewReader(fuzzGeometryBytes(g))))
		if err != nil {
			t.Fatalf("re-read of serialized geometry failed: %v", err)
		}
		if g2 != g {
			t.Fatalf("geometry round trip: %+v != %+v", g2, g)
		}
	})
}

func FuzzReadQuery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01, 0x02, 0x03})                                     // truncated weights
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // n > maxVectorLen
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeQuery(w, []int{1, 5, 9}, []uint64{2, 3, 4})
	w.Flush()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, weights, err := readQuery(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(idx) != len(weights) {
			t.Fatalf("parsed query with %d indices but %d weights", len(idx), len(weights))
		}
		if len(idx) > maxVectorLen {
			t.Fatalf("parsed query of %d rows exceeds the advertised limit", len(idx))
		}
		var rt bytes.Buffer
		rw := bufio.NewWriter(&rt)
		if err := writeQuery(rw, idx, weights); err != nil {
			t.Fatal(err)
		}
		rw.Flush()
		idx2, weights2, err := readQuery(bufio.NewReader(bytes.NewReader(rt.Bytes())))
		if err != nil {
			t.Fatalf("re-read of serialized query failed: %v", err)
		}
		for k := range idx {
			if idx2[k] != idx[k] || weights2[k] != weights[k] {
				t.Fatal("query round trip mismatch")
			}
		}
	})
}

// FuzzClientResponse feeds arbitrary bytes to the client-side response
// parsers — the path a malicious or fault-corrupted server controls.
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
		// Exercise both response shapes over the remaining bytes.
		readSumResponse(bufio.NewReader(bytes.NewReader(data[1:])), 2)
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
	var req bytes.Buffer
	w := bufio.NewWriter(&req)
	w.WriteByte(opWeightedSum)
	writeGeometry(w, core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	})
	writeQuery(w, []int{1, 5}, []uint64{2, 3})
	w.Flush()
	f.Add(req.Bytes())
	var breq bytes.Buffer
	bw := bufio.NewWriter(&breq)
	bw.WriteByte(opBatch)
	writeBatchRequest(bw, core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}, []core.BatchRequest{{Idx: []int{1, 5}, Weights: []uint64{2, 3}}, {}}, batchFlagVerify)
	bw.Flush()
	f.Add(breq.Bytes())
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

// fuzzBatchRequestBytes serializes an opBatch request body for seeding.
func fuzzBatchRequestBytes(geo core.Geometry, reqs []core.BatchRequest, flags uint64) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeBatchRequest(w, geo, reqs, flags); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
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
	f.Add(fuzzBatchRequestBytes(geo, []core.BatchRequest{
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
			bufio.NewReader(bytes.NewReader(fuzzBatchRequestBytes(g, reqs, flags))))
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
// reply parsers — the path a malicious or fault-corrupted server controls.
// With packed set the bytes are read as a packed reply whose lane width is
// taken from lane over {1, 2, 4, 8} bytes, and round-trip through the
// packed writer.
func FuzzReadBatchResponse(f *testing.F) {
	f.Add(uint16(0), uint8(0), false, false, uint8(0), []byte{})
	f.Add(uint16(1), uint8(2), false, false, uint8(0), []byte{statusOK, 0x02, 0x07, 0x09})
	f.Add(uint16(1), uint8(3), false, false, uint8(0), []byte{statusOK, 0x02, 0x07, 0x09}) // wrong length: per-sub error
	f.Add(uint16(1), uint8(2), false, false, uint8(0), []byte{statusErr, 0x03, 'b', 'a', 'd'})
	f.Add(uint16(2), uint8(1), true, false, uint8(0), []byte{statusOK, 0x01, 0x05})
	f.Add(uint16(1), uint8(1), false, false, uint8(0), []byte{0x42}) // corrupt sub-status byte
	res := []core.NDPBatchResult{
		{Sums: []uint64{7, 9, 1 << 40}},
		{Err: io.ErrUnexpectedEOF},
	}
	{
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		writeBatchResponse(w, res, true)
		w.Flush()
		f.Add(uint16(2), uint8(3), true, false, uint8(0), buf.Bytes())
	}
	for lane := uint8(0); lane < 4; lane++ {
		rg := laneRing(lane)
		f.Add(uint16(2), uint8(3), true, true, lane, appendPackedBatchResponse(nil, res, true, rg))
		// A 3-sum sub-result read for 2 columns is drained, and the one
		// after it still parses.
		f.Add(uint16(2), uint8(2), false, true, lane, appendPackedBatchResponse(nil,
			[]core.NDPBatchResult{{Sums: []uint64{1, 2, 3}}, {Sums: []uint64{4, 5}}}, false, rg))
	}
	f.Add(uint16(1), uint8(4), false, true, uint8(2), []byte{statusOK, 0x04, 0x01, 0x02}) // truncated lanes
	f.Fuzz(func(t *testing.T, count uint16, m uint8, verify, packed bool, lane uint8, data []byte) {
		n := int(count) % (maxBatchSubs + 2) // cover the in-range and over-limit shapes
		rg := laneRing(lane)
		read := func(b []byte) ([]core.NDPBatchResult, error) {
			r := bufio.NewReader(bytes.NewReader(b))
			if packed {
				return readPackedBatchResponse(r, n, int(m), verify, rg)
			}
			return readBatchResponse(r, n, int(m), verify)
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
		var wire []byte
		if packed {
			wire = appendPackedBatchResponse(nil, res, verify, rg)
		} else {
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			if err := writeBatchResponse(w, res, verify); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			wire = buf.Bytes()
		}
		res2, err := read(wire)
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
