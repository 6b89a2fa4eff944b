package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"secndp/internal/core"
	"secndp/internal/ring"
)

// readPackedBatchResponse parses an opBatch reply's payload for a batch of
// count sub-requests over m columns, whose sums are lanes of rg, into
// fresh storage.
func readPackedBatchResponse(r *bufio.Reader, count, m int, verify bool, rg ring.Ring) ([]core.NDPBatchResult, error) {
	res := make([]core.NDPBatchResult, count)
	if err := readBatchReply(r, res, make([]uint64, count*m), m, verify, rg); err != nil {
		return nil, err
	}
	return res, nil
}

// The client decodes shard replies in place from its read buffer. These
// tests hold the fast decoder to the byte-at-a-time one it replaced, and
// the reply parsers to buffers sized from the client's own geometry.

// TestReadUvarintsMatchesReadUvarint: over value streams that end
// cleanly, mid-varint or in a 10-byte overflow, read through readers that
// hand bytes over 16, one or half at a time, readUvarints must fill the
// same values, return the same error and consume the same bytes as a
// binary.ReadUvarint loop.
func TestReadUvarintsMatchesReadUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(250))
	var vals, head []byte
	for k := 0; k < 300; k++ {
		vals = binary.AppendUvarint(vals, rng.Uint64()>>rng.Intn(64))
		if k == 39 {
			head = append(head, vals...)
		}
	}
	streams := map[string][]byte{
		"clean EOF":  vals,
		"mid-varint": append(append([]byte{}, vals...), 0x80, 0x80),
		"10-byte overflow": append(head,
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0x07),
		"max uint64": binary.AppendUvarint(nil, ^uint64(0)),
		"empty":      nil,
	}
	readers := map[string]func([]byte) *bufio.Reader{
		"16-byte bufio": func(b []byte) *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 16) },
		"one byte":      func(b []byte) *bufio.Reader { return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(b))) },
		"half":          func(b []byte) *bufio.Reader { return bufio.NewReader(iotest.HalfReader(bytes.NewReader(b))) },
	}
	for sname, stream := range streams {
		for rname, newReader := range readers {
			for _, n := range []int{0, 1, 7, 40, 41, 299, 300, 301, 400} {
				want := make([]uint64, n)
				wr := newReader(stream)
				var wantErr error
				for k := range want {
					v, err := binary.ReadUvarint(wr)
					if err != nil {
						wantErr = err
						break
					}
					want[k] = v
				}
				got := make([]uint64, n)
				gr := newReader(stream)
				gotErr := readUvarints(gr, got)
				if gotErr != wantErr {
					t.Fatalf("%s via %s, %d values: error %v, want %v", sname, rname, n, gotErr, wantErr)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s via %s, %d values: value %d = %d, want %d", sname, rname, n, k, got[k], want[k])
					}
				}
				wantRest, _ := io.ReadAll(wr)
				gotRest, _ := io.ReadAll(gr)
				if !bytes.Equal(gotRest, wantRest) {
					t.Fatalf("%s via %s, %d values: %d bytes left, want %d", sname, rname, n, len(gotRest), len(wantRest))
				}
			}
		}
	}
}

// TestReplyCountCannotSizeClientBuffers: a reply claiming maxVectorLen−1
// sums and then ending fails as a transport error, and the client
// allocates by the geometry it sent, not by the count it was told.
func TestReplyCountCannotSizeClientBuffers(t *testing.T) {
	reply := binary.AppendUvarint([]byte{statusOK}, maxVectorLen-1)
	r := bufio.NewReader(bytes.NewReader(reply))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readPackedBatchResponse(r, 4, 32, true, ring.MustNew(32))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated reply parsed")
	}
	if _, ok := err.(*serverError); ok {
		t.Fatalf("truncation surfaced as a server error (%v), want transport", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("allocated %d bytes for a reply the geometry bounds at 32 sums", d)
	}
}

// TestWrongLengthSubResultStaysInSync: a sub-result whose length is not
// the geometry's M becomes that sub-request's error; it is drained, so
// the next sub-result still parses.
func TestWrongLengthSubResultStaysInSync(t *testing.T) {
	rg := ring.MustNew(32)
	wire := appendPackedBatchResponse(nil, []core.NDPBatchResult{
		{Sums: []uint64{1, 2, 3}},
		{Sums: []uint64{4, 5}},
		{Sums: []uint64{6, 7}},
	}, true, rg)
	res, err := readPackedBatchResponse(bufio.NewReader(bytes.NewReader(wire)), 3, 2, true, rg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res[0].Err.(*serverError); !ok || res[0].Sums != nil {
		t.Fatalf("3 sums for 2 columns: err %v, sums %v", res[0].Err, res[0].Sums)
	}
	for i := 1; i < 3; i++ {
		want := []uint64{uint64(2*i + 2), uint64(2*i + 3)}
		if res[i].Err != nil || !reflect.DeepEqual(res[i].Sums, want) {
			t.Fatalf("sub-result %d after a drained one: %+v, want sums %v", i, res[i], want)
		}
		if cap(res[i].Sums) != len(res[i].Sums) {
			t.Fatalf("sub-result %d: cap %d over len %d lets an append reach its neighbour", i, cap(res[i].Sums), len(res[i].Sums))
		}
	}
}
