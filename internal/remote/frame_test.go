package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/ring"
	"secndp/internal/telemetry"
)

// The frames on the wire must stay byte-identical to the golden bytes,
// and the reusable server-side parser must decode exactly what the
// allocating one does — including across reuse, where a previous
// (larger) request's leftovers sit in the frame.

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

// TestWireGoldens pins the one wire form to the bytes the previous
// release's peers write and read: the opBatch request frame a client
// writes, bare and behind a trace-context prefix, and one packed reply,
// which the client reads back. A change to any of them breaks
// interoperation with deployed peers in one direction or the other.
func TestWireGoldens(t *testing.T) {
	const goldenReq = "0602808004808080041010200400030202010502020301090104"
	const goldenResp = "0000040700000000000080ffffffff2c0100000102030405060708090a0b0c0d0e0f100103626164"
	goldenGeo := core.Geometry{
		Layout: memory.Layout{Placement: memory.TagSep, Base: 0x10000,
			TagBase: 0x800000, NumRows: 16, RowBytes: 16},
		Params: core.Params{We: 32, M: 4},
	}
	goldenReqs := []core.BatchRequest{{Idx: []int{1, 5}, Weights: []uint64{2, 3}}, {Idx: []int{9}, Weights: []uint64{4}}}
	traced, span := telemetry.NewRegistry().StartSpan(context.Background(), "golden")
	for name, tc := range map[string]struct {
		ctx  context.Context
		want string
	}{
		"untraced": {context.Background(), goldenReq},
		"traced":   {traced, fmt.Sprintf("%02x%016x%016x", opTraceCtx, uint64(span.Trace()), uint64(span.ID())) + goldenReq},
	} {
		t.Run(name+" request", func(t *testing.T) {
			var buf bytes.Buffer
			c := &Client{probed: true, w: bufio.NewWriter(&buf)}
			if err := c.sendBatchesLocked([]BatchFrame{{Ctx: tc.ctx, Geo: goldenGeo, Reqs: goldenReqs, Verify: true}}); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
				t.Errorf("batch request %s, golden %s", got, tc.want)
			}
		})
	}

	t.Run("packed reply", func(t *testing.T) {
		tagBytes := make([]byte, 16)
		for i := range tagBytes {
			tagBytes[i] = byte(i + 1)
		}
		goldenRes := []core.NDPBatchResult{
			{Sums: []uint64{7, 1 << 31, 0xFFFFFFFF, 300}, Tag: field.FromBytes(tagBytes)},
			{Err: errors.New("bad")},
		}
		rg := ring.MustNew(32)
		if got := hex.EncodeToString(appendPackedBatchResponse([]byte{statusOK}, goldenRes, true, rg)); got != goldenResp {
			t.Errorf("batch reply %s, golden %s", got, goldenResp)
		}
		wire, _ := hex.DecodeString(goldenResp)
		r := bufio.NewReader(bytes.NewReader(wire))
		if err := readStatus(r); err != nil {
			t.Fatal(err)
		}
		res, err := readPackedBatchResponse(r, len(goldenRes), goldenGeo.Params.M, true, rg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res[0].Sums, goldenRes[0].Sums) || !res[0].Tag.Equal(goldenRes[0].Tag) || res[0].Err != nil {
			t.Errorf("golden reply's first sub-result read as %+v", res[0])
		}
		if se, ok := res[1].Err.(*serverError); !ok || se.msg != "bad" {
			t.Errorf("golden reply's second sub-result read as %+v, want the server's error \"bad\"", res[1])
		}
	})
}
