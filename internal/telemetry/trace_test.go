package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceTreeAssembly: a root with nested children assembles into one
// tree, retrievable by ID, with parent links intact.
func TestTraceTreeAssembly(t *testing.T) {
	r := NewRegistry()
	ctx, root := r.StartSpan(context.Background(), "query")
	if root == nil || root.Trace() == 0 {
		t.Fatal("root span missing")
	}
	cctx, child := root.StartChild(ctx, "ndp")
	_, grand := child.StartChild(cctx, "shard0_sum")
	grand.Event(EventReplicaFailover, "replica 0 -> 1")
	grand.End()
	child.End()
	root.SetStatus(true, false)
	root.End()

	tree, ok := r.TraceTree(root.Trace())
	if !ok {
		t.Fatal("completed trace not retrievable")
	}
	if !tree.Complete {
		t.Fatal("tree with ended root not marked complete")
	}
	if len(tree.Spans) != 3 {
		t.Fatalf("tree has %d spans, want 3", len(tree.Spans))
	}
	nodes := tree.Tree()
	if len(nodes) != 1 || nodes[0].Op != "query" {
		t.Fatalf("forest roots = %+v, want single query root", nodes)
	}
	if len(nodes[0].Children) != 1 || nodes[0].Children[0].Op != "ndp" {
		t.Fatal("ndp child not nested under root")
	}
	leaf := nodes[0].Children[0].Children
	if len(leaf) != 1 || leaf[0].Op != "shard0_sum" {
		t.Fatal("shard span not nested under ndp")
	}
	if len(leaf[0].Events) != 1 || leaf[0].Events[0].Kind != EventReplicaFailover {
		t.Fatalf("events = %+v, want one replica_failover", leaf[0].Events)
	}
	if !nodes[0].Verified {
		t.Fatal("root SetStatus(verified) lost")
	}
}

// TestFlightRecorderPinning: degraded, verify-failed, and slow roots pin;
// healthy fast roots don't.
func TestFlightRecorderPinning(t *testing.T) {
	r := NewRegistry()
	r.SetSlowThreshold(time.Hour) // nothing is "slow" unless forced

	end := func(op string, f func(s *ActiveSpan)) TraceID {
		_, s := r.StartSpan(context.Background(), op)
		if f != nil {
			f(s)
		}
		s.End()
		return s.Trace()
	}

	healthy := end("ok", nil)
	degraded := end("deg", func(s *ActiveSpan) { s.SetStatus(false, true) })
	failed := end("bad", func(s *ActiveSpan) { s.Fail(errors.New("mac mismatch"), ErrClassVerify) })

	pins := r.SlowTraces()
	if len(pins) != 2 {
		t.Fatalf("flight recorder holds %d traces, want 2: %+v", len(pins), pins)
	}
	// Newest first: verify_failed then degraded.
	if pins[0].PinReason != "verify_failed" || pins[1].PinReason != "degraded" {
		t.Fatalf("pin reasons = %q, %q", pins[0].PinReason, pins[1].PinReason)
	}
	if pins[0].ErrClass != ErrClassVerify {
		t.Fatalf("pinned err_class = %q, want %q", pins[0].ErrClass, ErrClassVerify)
	}
	for _, id := range []TraceID{degraded, failed} {
		if tr, ok := r.TraceTree(id); !ok || tr.PinReason == "" {
			t.Fatalf("anomalous trace %s not pinned", id)
		}
	}
	if tr, ok := r.TraceTree(healthy); !ok || tr.PinReason != "" {
		t.Fatal("healthy trace pinned (or evicted from the ring)")
	}
}

// TestFlightRecorderSlowPinning: the threshold catches a genuinely slow
// root and ignores fast ones.
func TestFlightRecorderSlowPinning(t *testing.T) {
	r := NewRegistry()
	r.SetSlowThreshold(time.Millisecond)
	_, fast := r.StartSpan(context.Background(), "fast")
	fast.End()
	_, slow := r.StartSpan(context.Background(), "slow")
	time.Sleep(3 * time.Millisecond)
	slow.End()
	pins := r.SlowTraces()
	if len(pins) != 1 || pins[0].PinReason != "slow" || pins[0].Op != "slow" {
		t.Fatalf("pins = %+v, want exactly the slow root", pins)
	}
}

// TestFlightRecorderEvictionFIFO: the pinned tier is bounded; old pins
// fall out, the ring keeps rolling independently.
func TestFlightRecorderEvictionFIFO(t *testing.T) {
	r := NewRegistry()
	var first TraceID
	for i := 0; i < DefaultFlightRecorderCapacity+5; i++ {
		_, s := r.StartSpan(context.Background(), fmt.Sprintf("deg%d", i))
		s.SetStatus(false, true)
		s.End()
		if i == 0 {
			first = s.Trace()
		}
	}
	pins := r.SlowTraces()
	if len(pins) != DefaultFlightRecorderCapacity {
		t.Fatalf("flight recorder holds %d, want cap %d", len(pins), DefaultFlightRecorderCapacity)
	}
	for _, p := range pins {
		if p.Trace == first.String() {
			t.Fatal("oldest pin survived past capacity")
		}
	}
}

// TestFlightRecorderRemoteSlowPinning: a server-side tree has no local
// root, so a slow remote span must pin the partial tree itself —
// otherwise secndp-server -slowlog could never fire.
func TestFlightRecorderRemoteSlowPinning(t *testing.T) {
	r := NewRegistry()
	r.SetSlowThreshold(time.Millisecond)
	fast := r.StartRemoteSpan(TraceID(0x51), SpanID(1), "server_weighted_sum")
	fast.End()
	slow := r.StartRemoteSpan(TraceID(0x52), SpanID(2), "server_tag_sum")
	time.Sleep(3 * time.Millisecond)
	slow.End()
	pins := r.SlowTraces()
	if len(pins) != 1 || pins[0].PinReason != "slow" || pins[0].Op != "server_tag_sum" {
		t.Fatalf("pins = %+v, want exactly the slow remote span's tree", pins)
	}
	tree, ok := r.TraceTree(TraceID(0x52))
	if !ok || tree.Complete || tree.PinReason != "slow" {
		t.Fatalf("pinned partial tree = %+v", tree)
	}
}

// TestActiveTierServesPartialTrees: a trace whose root never ended (the
// server-side case) is retrievable, marked incomplete.
func TestActiveTierServesPartialTrees(t *testing.T) {
	r := NewRegistry()
	child := r.StartRemoteSpan(TraceID(0xabcd), SpanID(1), "server_weighted_sum")
	child.End()
	tree, ok := r.TraceTree(TraceID(0xabcd))
	if !ok {
		t.Fatal("partial tree not served from the active tier")
	}
	if tree.Complete {
		t.Fatal("rootless tree marked complete")
	}
	if len(tree.Spans) != 1 || !tree.Spans[0].Remote {
		t.Fatalf("spans = %+v, want one remote span", tree.Spans)
	}
}

// TestHistogramExemplars: ObserveTrace links a bucket to the trace that
// landed in it; plain Observe leaves exemplars untouched.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "test", nil)
	h.Observe(time.Microsecond)
	id := TraceID(0x1234abcd)
	h.ObserveTrace(50*time.Millisecond, id)

	snap := r.Snapshot()
	var found bool
	for _, hs := range snap.Histograms {
		if hs.Name != "q_seconds" {
			continue
		}
		found = true
		if hs.Exemplars == nil {
			t.Fatal("histogram with a traced observation has no exemplars")
		}
		var hit bool
		for _, ex := range hs.Exemplars {
			if ex == id.String() {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("exemplars %v do not include %s", hs.Exemplars, id)
		}
	}
	if !found {
		t.Fatal("histogram missing from snapshot")
	}
}

// TestTraceDebugEndpoints drives the HTTP surface end to end:
// /debug/trace/{id}, /debug/slow, and a RegisterDebug source.
func TestTraceDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.RegisterDebug("cluster", func() any {
		return map[string]int{"epoch": 3}
	})
	_, s := r.StartSpan(context.Background(), "query")
	s.SetStatus(false, true) // degraded → pinned
	s.End()

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, []byte(sb.String())
	}

	code, body := get("/debug/trace/" + s.Trace().String())
	if code != http.StatusOK {
		t.Fatalf("/debug/trace/{id} = %d: %s", code, body)
	}
	var tr struct {
		Trace    string `json:"trace"`
		Complete bool   `json:"complete"`
		Pin      string `json:"pin_reason"`
		Tree     []struct {
			Op string `json:"op"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("bad trace JSON: %v", err)
	}
	if tr.Trace != s.Trace().String() || !tr.Complete || tr.Pin != "degraded" {
		t.Fatalf("trace JSON = %+v", tr)
	}
	if len(tr.Tree) != 1 || tr.Tree[0].Op != "query" {
		t.Fatalf("tree = %+v", tr.Tree)
	}

	if code, _ := get("/debug/trace/zzzz"); code != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", code)
	}
	if code, _ := get("/debug/trace/00000000000000ff"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", code)
	}

	code, body = get("/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", code)
	}
	var slow struct {
		Pinned []TraceSummary `json:"pinned"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Pinned) != 1 || slow.Pinned[0].PinReason != "degraded" {
		t.Fatalf("slow listing = %+v", slow.Pinned)
	}

	code, body = get("/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(body), `"epoch": 3`) {
		t.Fatalf("/debug/cluster = %d: %s", code, body)
	}
	if code, _ := get("/debug/nosuch"); code != http.StatusNotFound {
		t.Fatalf("unknown debug source = %d, want 404", code)
	}
}

// TestTraceNilSafety: every trace entry point must be a no-op on nil
// registries and nil spans — the disabled-telemetry hot path.
func TestTraceNilSafety(t *testing.T) {
	var r *Registry
	ctx, s := r.StartSpan(context.Background(), "op")
	if s != nil {
		t.Fatal("nil registry returned a live span")
	}
	s.Event("kind", "detail")
	s.Eventf("kind", "%d", 1)
	s.SetStatus(true, false)
	s.Fail(errors.New("x"), ErrClassTransport)
	s.End()
	s.EndErr(errors.New("x"), ErrClassTransport)
	_, c := s.StartChild(ctx, "child")
	c.End()
	s.Child("child2").End()
	if s.Trace() != 0 || s.ID() != 0 {
		t.Fatal("nil span has non-zero IDs")
	}
	r.SetSlowThreshold(time.Second)
	if _, ok := r.TraceTree(1); ok {
		t.Fatal("nil registry served a tree")
	}
	if r.SlowTraces() != nil || r.RecentTraces(5) != nil {
		t.Fatal("nil registry listed traces")
	}
	r.RegisterDebug("x", func() any { return nil })
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("bare context carries a span")
	}
}

// TestTraceConcurrentRecording hammers span creation from many
// goroutines; run under -race this guards the store's locking.
func TestTraceConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	r.SetSlowThreshold(time.Nanosecond) // pin everything: exercises both tiers
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := r.StartSpan(context.Background(), fmt.Sprintf("op%d", g))
				_, c := root.StartChild(ctx, "child")
				c.Event(EventMirrorFill, "x")
				c.End()
				root.End()
				r.TraceTree(root.Trace())
				r.SlowTraces()
				r.RecentTraces(3)
			}
		}(g)
	}
	wg.Wait()
	if len(r.SlowTraces()) != DefaultFlightRecorderCapacity {
		t.Fatalf("flight recorder holds %d, want full cap", len(r.SlowTraces()))
	}
}
