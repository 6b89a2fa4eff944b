package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/telemetry"

	"secndp/internal/memory"
)

// Wire-level trace propagation: the opTraceCtx prefix must appear
// exactly when the context carries an active span, and a traced frame
// must be the untraced frame with the prefix prepended.

// tracedCtx returns a context carrying a live root span.
func tracedCtx(t *testing.T) (context.Context, *telemetry.ActiveSpan) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ctx, span := reg.StartSpan(context.Background(), "test")
	if span == nil {
		t.Fatal("registry-backed StartSpan returned nil span")
	}
	return ctx, span
}

func TestTraceFrameUntracedEmpty(t *testing.T) {
	// No span on the context: the frame starts at the operation byte.
	if f := appendTrace(nil, context.Background()); len(f) != 0 {
		t.Fatalf("untraced call produced a %d-byte prefix, want none", len(f))
	}
}

func TestTraceFramePrefixLayout(t *testing.T) {
	// opTraceCtx + 8-byte big-endian trace ID + 8-byte parent span ID,
	// nothing else.
	ctx, span := tracedCtx(t)
	f := appendTrace(nil, ctx)
	if len(f) != 1+traceCtxLen {
		t.Fatalf("prefix is %d bytes, want %d", len(f), 1+traceCtxLen)
	}
	if f[0] != opTraceCtx {
		t.Fatalf("prefix op = %d, want opTraceCtx (%d)", f[0], opTraceCtx)
	}
	if got := telemetry.TraceID(binary.BigEndian.Uint64(f[1:9])); got != span.Trace() {
		t.Fatalf("prefix trace ID %s, want %s", got, span.Trace())
	}
	if got := telemetry.SpanID(binary.BigEndian.Uint64(f[9:17])); got != span.ID() {
		t.Fatalf("prefix parent span %s, want %s", got, span.ID())
	}
	// The prefixed frame is the untraced frame with the prefix prepended:
	// stripping it restores byte identity.
	geo := testGeometry(memory.TagSep, 8, 4)
	reqs := []core.BatchRequest{{Idx: []int{1, 2}, Weights: []uint64{3, 4}}}
	traced := appendBatchRequest(append(appendTrace(nil, ctx), opBatch), geo, reqs, batchFlagVerify)
	plain := appendBatchRequest([]byte{opBatch}, geo, reqs, batchFlagVerify)
	if !bytes.Equal(traced[1+traceCtxLen:], plain) {
		t.Fatal("traced frame body differs from the untraced frame")
	}
}

func TestTraceServerRecordsRemoteSpans(t *testing.T) {
	// Full propagation: the server's registry receives child spans for
	// the client's trace, stitched under the client's span IDs. A single
	// query rides the batch op, so the server span is server_batch, a
	// child of the client's "ndp" phase span.
	mem := memory.NewSpace()
	srv := NewServer(mem)
	serverReg := telemetry.NewRegistry()
	srv.Instrument(serverReg) // before Listen, per its contract
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := dial(t, addr)

	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 16, 8)
	rng := rand.New(rand.NewSource(8))
	rows := randRows(rng, 16, 8, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	ctx, span := reg.StartSpan(context.Background(), "test")
	if _, err := tab.QueryCtx(ctx, client, []int{1, 3}, []uint64{2, 2}, core.QueryOptions{Verify: true}); err != nil {
		t.Fatal(err)
	}
	span.End()
	ctree, ok := reg.TraceTree(span.Trace())
	if !ok {
		t.Fatal("client registry holds no tree for its own trace")
	}
	var ndpSpan telemetry.SpanID
	for _, s := range ctree.Spans {
		if s.Op == "ndp" && s.Parent == span.ID() {
			ndpSpan = s.ID
		}
	}
	if ndpSpan == 0 {
		t.Fatal("client trace has no ndp phase span under the root")
	}

	// The server finishes its spans after the reply is on the wire; poll
	// briefly for the tree to land in its registry.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tree, ok := serverReg.TraceTree(span.Trace())
		if ok {
			var ops []string
			var haveSum, haveDecode bool
			for _, s := range tree.Spans {
				ops = append(ops, s.Op)
				if !s.Remote && s.Op != "decode" && s.Op != "gather_sum" {
					t.Fatalf("server-side span %q not marked remote", s.Op)
				}
				switch s.Op {
				case "server_batch":
					if s.Parent != ndpSpan {
						t.Fatalf("server_batch parent %s, want the client's ndp span %s", s.Parent, ndpSpan)
					}
					haveSum = true
				case "decode":
					haveDecode = true
				}
			}
			if haveSum && haveDecode {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("server trace tree incomplete: ops %v", ops)
			}
		} else if time.Now().After(deadline) {
			t.Fatal("server registry never saw the client's trace")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
