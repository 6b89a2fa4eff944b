package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/telemetry"
)

// The zero-copy frames must produce byte-identical wire traffic to the
// original per-varint writers, and the reusable server-side parser must
// decode exactly what the allocating one does — including across reuse,
// where a previous (larger) request's leftovers sit in the frame.

func frameGeo(n int) core.Geometry {
	return core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: n, RowBytes: 128},
		Params: core.Params{We: 32, M: 32},
	}
}

func randFrameQuery(rng *rand.Rand, rows int) ([]int, []uint64) {
	n := 1 + rng.Intn(64)
	idx := make([]int, n)
	w := make([]uint64, n)
	for k := range idx {
		idx[k] = rng.Intn(rows)
		w[k] = rng.Uint64()
	}
	return idx, w
}

// TestConnFramesReadQueryMatchesAllocating replays a stream of queries of
// varying sizes through one reused connFrames and checks each decode
// against the allocating parser on the same bytes.
func TestConnFramesReadQueryMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	fr := &connFrames{}
	for trial := 0; trial < 50; trial++ {
		idx, w := randFrameQuery(rng, 1<<20)
		wire := appendQuery(nil, idx, w)

		gi, gw, err := fr.readQuery(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ri, rw, err := readQuery(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gi, ri) || !reflect.DeepEqual(gw, rw) {
			t.Fatalf("trial %d: frame decode diverged from allocating decode", trial)
		}
	}
}

// TestConnFramesReadBatchMatchesAllocating does the same for whole batch
// frames, with sub-request counts shrinking and growing across reuse.
func TestConnFramesReadBatchMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	fr := &connFrames{}
	geo := frameGeo(1 << 16)
	for trial := 0; trial < 30; trial++ {
		reqs := make([]core.BatchRequest, 1+rng.Intn(8))
		for i := range reqs {
			reqs[i].Idx, reqs[i].Weights = randFrameQuery(rng, 1<<16)
		}
		flags := uint64(rng.Intn(4)) // verify and packed, each on or off
		wire := appendBatchRequest(nil, geo, reqs, flags)

		g1, r1, v1, err := fr.readBatchRequest(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g2, r2, v2, err := readBatchRequest(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatal(err)
		}
		if g1 != g2 || v1 != v2 || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("trial %d: frame decode diverged from allocating decode", trial)
		}
		if !reflect.DeepEqual(r1, reqs) {
			t.Fatalf("trial %d: decode does not round-trip the input", trial)
		}
	}
}

// TestAppendWritersMatchBufioWriters pins the gather marshalers to the
// bufio writers bit for bit (the writers now delegate, so this guards the
// delegation as well as the formats).
func TestAppendWritersMatchBufioWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	geo := frameGeo(512)
	idx, w := randFrameQuery(rng, 512)

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeGeometry(bw, geo); err != nil {
		t.Fatal(err)
	}
	if err := writeQuery(bw, idx, w); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got := appendQuery(appendGeometry(nil, geo), idx, w)
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("gathered query frame differs from bufio-written bytes")
	}

	reqs := []core.BatchRequest{{Idx: idx, Weights: w}, {Idx: []int{1}, Weights: []uint64{2, 3}}}
	buf.Reset()
	bw = bufio.NewWriter(&buf)
	if err := writeBatchRequest(bw, geo, reqs, batchFlagVerify); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got = appendBatchRequest(nil, geo, reqs, batchFlagVerify)
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("gathered batch frame differs from bufio-written bytes")
	}

	// The trace-context prefix must be the identity on these goldens
	// whenever either side does not opt in: an untraced context on a
	// trace-capable connection, and a traced context against a server
	// that never advertised capTrace.
	legacyFrame := appendQuery(appendGeometry([]byte{opWeightedSum}, geo), idx, w)
	untraced := &Client{capsKnown: true, caps: serverCaps}
	reg := telemetry.NewRegistry()
	traced, _ := reg.StartSpan(context.Background(), "golden")
	for name, tc := range map[string]struct {
		c   *Client
		ctx context.Context
	}{
		"untraced ctx":  {untraced, context.Background()},
		"legacy server": {&Client{capsKnown: true, caps: capBatch}, traced},
	} {
		framed := appendQuery(appendGeometry(append(traceFrame(t, tc.c, tc.ctx), opWeightedSum), geo), idx, w)
		if !bytes.Equal(framed, legacyFrame) {
			t.Errorf("%s: traced framing path altered the golden frame bytes", name)
		}
	}

	// opBatch goldens, the bytes written before packed replies existed. A
	// client whose server lacks capPacked must frame its request to them,
	// and the varint reply (a new server's answer to an unflagged request)
	// must match them from both writers.
	const goldenReq = "0602808004808080041010200400010202010502020301090104"
	const goldenResp = "000004078080808008ffffffff0fac020102030405060708090a0b0c0d0e0f100103626164"
	goldenGeo := core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 16},
		Params: core.Params{We: 32, M: 4},
	}
	goldenReqs := []core.BatchRequest{{Idx: []int{1, 5}, Weights: []uint64{2, 3}}, {Idx: []int{9}, Weights: []uint64{4}}}
	tagBytes := make([]byte, 16)
	for i := range tagBytes {
		tagBytes[i] = byte(i + 1)
	}
	goldenRes := []core.NDPBatchResult{
		{Sums: []uint64{7, 1 << 31, 0xFFFFFFFF, 300}, Tag: field.FromBytes(tagBytes)},
		{Err: errors.New("bad")},
	}
	for name, caps := range map[string]uint64{"legacy server": capBatch | capTrace, "no probe answer": 0} {
		legacy := &Client{capsKnown: true, caps: caps}
		framed := appendBatchRequest([]byte{opBatch}, goldenGeo, goldenReqs, legacy.batchFlagsLocked(goldenGeo, true))
		if got := hex.EncodeToString(framed); got != goldenReq {
			t.Errorf("%s: batch request %s, golden %s", name, got, goldenReq)
		}
	}
	modern := &Client{capsKnown: true, caps: serverCaps}
	if got := modern.batchFlagsLocked(goldenGeo, true); got != batchFlagVerify|batchFlagPacked {
		t.Errorf("packed-capable server: flags %#x, want verify|packed", got)
	}
	if got := modern.batchFlagsLocked(core.Geometry{Params: core.Params{We: 12}}, false); got != 0 {
		t.Errorf("12-bit geometry: flags %#x, want no packed lanes for a width that is not one", got)
	}
	if got := hex.EncodeToString(appendBatchResponse([]byte{statusOK}, goldenRes, true)); got != goldenResp {
		t.Errorf("varint batch reply %s, golden %s", got, goldenResp)
	}
	buf.Reset()
	bw = bufio.NewWriter(&buf)
	bw.WriteByte(statusOK)
	if err := writeBatchResponse(bw, goldenRes, true); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := hex.EncodeToString(buf.Bytes()); got != goldenResp {
		t.Errorf("bufio-written batch reply %s, golden %s", got, goldenResp)
	}
}
