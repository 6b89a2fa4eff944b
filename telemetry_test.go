package secndp

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"secndp/internal/telemetry"
)

func counterValue(reg *Telemetry, name string) uint64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histCount(reg *Telemetry, name string) uint64 {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// rootChildren fetches a completed trace by its hex ID and counts its
// root's direct children by op.
func rootChildren(t *testing.T, reg *Telemetry, trace string) map[string]int {
	t.Helper()
	id, err := telemetry.ParseTraceID(trace)
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := reg.TraceTree(id)
	if !ok {
		t.Fatalf("trace %s not in the store", trace)
	}
	tree := tt.Tree()
	if !tt.Complete || len(tree) != 1 {
		t.Fatalf("trace %s: complete=%v with %d top-level spans, want one root", trace, tt.Complete, len(tree))
	}
	ops := map[string]int{}
	for _, c := range tree[0].Children {
		ops[c.Op]++
	}
	return ops
}

// traceEvents counts the events of each kind over every span of trace.
func traceEvents(t *testing.T, reg *Telemetry, trace string) map[string]int {
	t.Helper()
	id, err := telemetry.ParseTraceID(trace)
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := reg.TraceTree(id)
	if !ok {
		t.Fatalf("trace %s not in the store", trace)
	}
	kinds := map[string]int{}
	for _, sp := range tt.Spans {
		for _, ev := range sp.Events {
			kinds[ev.Kind]++
		}
	}
	return kinds
}

// getJSON fetches url, which must answer 200, and decodes its JSON body
// into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: bad JSON: %v\n%s", url, err, body)
	}
}

// TestTelemetryLocalQueries drives an instrumented engine over a local
// table and checks the registry tells the story: query counters, OTP
// engine selection, per-phase histograms, and Result.Timing populated
// without any registry at all.
func TestTelemetryLocalQueries(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rows := testRows(rng, 64, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Name: "tele", Rows: 64, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	req := Request{Idx: []int{1, 2, 3, 7}, Weights: []uint64{2, 3, 4, 5}}
	var res Result
	for i := 0; i < 3; i++ {
		res, err = tab.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !res.Verified {
		t.Fatal("query not verified")
	}
	if res.Timing.Total <= 0 || res.Timing.Pad <= 0 || res.Timing.Verify <= 0 {
		t.Fatalf("Result.Timing not populated: %+v", res.Timing)
	}
	if res.Timing.Fallback != 0 {
		t.Fatalf("no fallback ran, Timing.Fallback = %v", res.Timing.Fallback)
	}

	if got := counterValue(reg, "secndp_queries_total"); got != 3 {
		t.Errorf("secndp_queries_total = %d, want 3", got)
	}
	if got := counterValue(reg, "secndp_queries_verified_total"); got != 3 {
		t.Errorf("secndp_queries_verified_total = %d, want 3", got)
	}
	if got := counterValue(reg, "secndp_encrypts_total"); got != 1 {
		t.Errorf("secndp_encrypts_total = %d, want 1", got)
	}
	// Some keystream engine must have been selected for the pad runs.
	engines := counterValue(reg, "secndp_otp_engine_native_total") +
		counterValue(reg, "secndp_otp_engine_stream_total") +
		counterValue(reg, "secndp_otp_engine_perblock_total")
	if engines == 0 {
		t.Error("no OTP engine selections recorded")
	}
	if got := histCount(reg, "secndp_query_seconds"); got != 3 {
		t.Errorf("secndp_query_seconds count = %d, want 3", got)
	}
	for _, phase := range []string{"pad", "ndp", "tag", "verify"} {
		if histCount(reg, "secndp_phase_"+phase+"_seconds") == 0 {
			t.Errorf("phase histogram %s empty", phase)
		}
	}

	// The completed-trace ring holds one tree per operation, newest
	// first, with the query phases as the root's children.
	recent := reg.RecentTraces(10)
	roots := map[string]int{}
	for _, s := range recent {
		roots[s.Op]++
	}
	if len(recent) != 4 || roots["create_table"] != 1 || roots["query"] != 3 {
		t.Fatalf("recent roots = %v, want 1 create_table + 3 query", roots)
	}
	if recent[0].Op != "query" || !recent[0].Verified || recent[0].Trace != res.Trace {
		t.Fatalf("newest trace = %+v, want the last verified query %s", recent[0], res.Trace)
	}
	if rootChildren(t, reg, recent[0].Trace)["pad"] == 0 {
		t.Error("query tree missing its pad phase child")
	}

	// One Prometheus scrape exposes the whole story.
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		"secndp_queries_total 3",
		"secndp_query_seconds_bucket",
		"secndp_phase_pad_seconds_bucket",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestTelemetryRemoteDegraded runs the instrumented engine against a real
// loopback server, beside a local table and a healthy 2-shard cluster on
// the same registry, tampers with the server's memory (one rejected MAC
// crosses WithFallback(1)'s threshold, so the TEE recomputes the query),
// then kills the server (the remote table's one shard is filled from the
// mirror), and checks the transport counters, the degradation counter,
// every query phase, the batch pipeline's counters, the operator's
// /metrics series and the /debug/slow and /debug/cluster views all land
// in one registry.
func TestTelemetryRemoteDegraded(t *testing.T) {
	reg := NewTelemetry()
	h := newFaultHarness(t, 77, fastTransport(), WithTelemetry(reg), WithFallback(1))
	h.srv.Instrument(reg)
	ctx := context.Background()

	if _, err := h.checkQuery(t, []int{1, 4}, []uint64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, "secndp_provisions_total"); got != 1 {
		t.Errorf("secndp_provisions_total = %d, want 1", got)
	}
	if counterValue(reg, "secndp_transport_attempts_total") == 0 {
		t.Error("transport attempts not mirrored onto the registry")
	}
	local, err := h.eng.CreateTable(ctx, LocalBackend(NewMemory()), TableSpec{Rows: 32, Cols: 32}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if _, err := local.Query(ctx, Request{Idx: []int{3, 8}, Weights: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	// A duplicate-heavy batch on each table: 8 requests × 4 refs over 8
	// hot rows, one pipelined exchange each.
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Idx: []int{i, (i + 1) % 8, (i + 3) % 8, 7}, Weights: []uint64{1, 2, 3, 4}}
	}
	for _, tab := range []*Table{local, h.tab} {
		if _, err := tab.QueryBatch(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	}
	pipelined, wire := counterValue(reg, "secndp_batch_pipelined_total"), counterValue(reg, "secndp_batch_wire_ops_total")
	distinct, refs := counterValue(reg, "secndp_batch_distinct_rows_total"), counterValue(reg, "secndp_batch_rowrefs_total")
	if pipelined < 2 || wire != pipelined || !(0 < distinct && distinct < refs) {
		t.Errorf("batch counters: pipelined %d, wire ops %d, distinct rows %d of %d refs", pipelined, wire, distinct, refs)
	}
	shards, _ := testServers(t, 2)
	clustered, err := h.eng.CreateTable(ctx, ClusterBackend(shards...), TableSpec{Rows: 32, Cols: 32}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	if _, err := clustered.Query(ctx, Request{Idx: []int{2, 30}, Weights: []uint64{5, 6}}); err != nil {
		t.Fatal(err)
	}

	h.mem.FlipBit(h.tab.Geometry().Layout.RowAddr(1)+2, 3)
	fb, err := h.checkQuery(t, []int{1, 4}, []uint64{2, 3})
	if err != nil {
		t.Fatalf("rejected query not served by the fallback: %v", err)
	}
	if !fb.Degraded || fb.Verified || fb.Timing.Fallback <= 0 {
		t.Fatalf("fallback result: degraded=%v verified=%v timing %+v", fb.Degraded, fb.Verified, fb.Timing)
	}
	if rootChildren(t, reg, fb.Trace)["fallback"] != 1 {
		t.Error("fallback query tree has no fallback child")
	}

	h.srv.Close()
	h.proxy.Close()
	res, err := h.checkQuery(t, []int{2, 9}, []uint64{1, 6})
	if err != nil {
		t.Fatalf("outage query not degraded: %v", err)
	}
	if !res.Degraded || !res.Verified {
		t.Fatalf("mirror-filled query after outage: degraded=%v verified=%v", res.Degraded, res.Verified)
	}
	if traceEvents(t, reg, res.Trace)[telemetry.EventMirrorFill] != 1 {
		t.Error("mirror-filled query tree has no mirror_fill event")
	}
	if got := counterValue(reg, "secndp_queries_degraded_total"); got != 2 {
		t.Errorf("secndp_queries_degraded_total = %d, want 2", got)
	}
	if counterValue(reg, "secndp_transport_retries_total") == 0 {
		t.Error("outage produced no transport retries")
	}
	if histCount(reg, "secndp_phase_fallback_seconds") != 1 {
		t.Error("fallback phase histogram empty")
	}
	for _, phase := range telemetry.PhaseNames {
		if histCount(reg, "secndp_phase_"+phase+"_seconds") == 0 {
			t.Errorf("phase histogram %s empty", phase)
		}
	}
	recent := reg.RecentTraces(1)
	if len(recent) != 1 || recent[0].Op != "query" || !recent[0].Degraded || recent[0].Trace != res.Trace {
		t.Fatalf("newest trace not the degraded query: %+v", recent)
	}

	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"secndp_queries_total", "secndp_queries_degraded_total",
		"secndp_transport_attempts_total", "secndp_breaker_state", "secndp_otp_engine",
		"secndp_phase_pad_seconds_bucket", "secndp_phase_fallback_seconds_bucket", "secndp_query_seconds_bucket",
		"secndp_batch_pipelined_total", "secndp_batch_distinct_rows_total", "secndp_batch_wire_ops_total",
		"secndp_server_ops_batch_total", "secndp_server_op_batch_seconds_bucket",
		"secndp_query_errors_transport_total"} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	var slow struct {
		Pinned []telemetry.TraceSummary `json:"pinned"`
	}
	getJSON(t, srv.URL+"/debug/slow", &slow)
	pinned := false
	for _, s := range slow.Pinned {
		pinned = pinned || (s.Trace == res.Trace && s.PinReason == "degraded")
	}
	if !pinned {
		t.Fatalf("degraded query %s not pinned on /debug/slow: %+v", res.Trace, slow.Pinned)
	}
	var cl struct {
		NumShards int `json:"num_shards"`
		Shards    []struct{ Replicas []struct{ Healthy bool } }
	}
	getJSON(t, srv.URL+"/debug/cluster", &cl)
	healthy := cl.NumShards == 2 && len(cl.Shards) == 2
	for _, sh := range cl.Shards {
		for _, r := range sh.Replicas {
			healthy = healthy && r.Healthy
		}
	}
	if !healthy {
		t.Fatalf("/debug/cluster: %+v, want 2 shards, every replica healthy", cl)
	}
}

// TestTelemetryRemoteAfterCluster creates a remote table after a 2-shard
// cluster table on one instrumented engine: the remote table's one shard
// reports through its transport's series, so /debug/cluster, the cluster
// gauges and the shard-0 transport gauges still describe the cluster.
func TestTelemetryRemoteAfterCluster(t *testing.T) {
	reg := NewTelemetry()
	h := newFaultHarness(t, 81, fastTransport(), WithTelemetry(reg))
	ctx := context.Background()
	shards, _ := testServers(t, 2)
	clustered, err := h.eng.CreateTable(ctx, ClusterBackend(shards...), TableSpec{Rows: 32, Cols: 32}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	shard0 := h.eng.gauges["secndp_cluster_shard0_replica0_transport_"]
	remote, err := h.eng.CreateTable(ctx, RemoteBackend(h.rc), TableSpec{Rows: 32, Cols: 32}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if shard0 == nil || h.eng.gauges["secndp_cluster_shard0_replica0_transport_"] != shard0 {
		t.Error("the remote table rebound the cluster's shard-0 transport gauges")
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nsecndp_cluster_shards 2\n") {
		t.Error("/metrics secndp_cluster_shards does not read the cluster's 2")
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	var cl struct {
		NumShards int `json:"num_shards"`
	}
	getJSON(t, srv.URL+"/debug/cluster", &cl)
	if cl.NumShards != 2 {
		t.Fatalf("/debug/cluster num_shards = %d after a remote table, want the cluster's 2", cl.NumShards)
	}
}

// TestTelemetryBatchMirrorFillTree kills the server under a coalesced
// QueryBatch: the remote table's one shard is filled from the mirror, so
// every request is answered — still MAC-checked — and the batch's tree,
// pinned as degraded, carries the mirror_fill event that explains why.
func TestTelemetryBatchMirrorFillTree(t *testing.T) {
	reg := NewTelemetry()
	h := newFaultHarness(t, 79, fastTransport(), WithTelemetry(reg), WithFallback(1))
	h.srv.Close()
	h.proxy.Close()

	reqs := []Request{
		{Idx: []int{1, 4}, Weights: []uint64{2, 3}},
		{Idx: []int{2, 9, 30}, Weights: []uint64{1, 6, 5}},
	}
	out, err := h.tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("outage batch not degraded: %v", err)
	}
	for i := range out {
		want := plainSum(h.rows, reqs[i].Idx, reqs[i].Weights, 32, 0xFFFFFFFF)
		for j := range want {
			if out[i].Values[j] != want[j] {
				t.Fatalf("request %d col %d: %d != %d", i, j, out[i].Values[j], want[j])
			}
		}
		if !out[i].Degraded || !out[i].Verified {
			t.Fatalf("request %d not mirror-filled: %+v", i, out[i])
		}
	}
	if got := counterValue(reg, "secndp_queries_degraded_total"); got != uint64(len(reqs)) {
		t.Errorf("secndp_queries_degraded_total = %d, want %d", got, len(reqs))
	}
	var pin *telemetry.TraceSummary
	for _, s := range reg.SlowTraces() {
		if s.Trace == out[0].Trace {
			pin = &s
		}
	}
	if pin == nil || pin.Op != "query_batch" || pin.PinReason != "degraded" {
		t.Fatalf("batch trace %s not pinned as degraded: %+v", out[0].Trace, reg.SlowTraces())
	}
	if traceEvents(t, reg, out[0].Trace)[telemetry.EventMirrorFill] != 1 {
		t.Fatal("degraded batch tree has no mirror_fill event")
	}
}

// TestTelemetryBatchFallbackTree tampers with one row under WithFallback(1)
// and runs a QueryBatch over it: the joint check rejects every request
// reading that row, the threshold is crossed, and each such request is
// recomputed inside the TEE — Degraded, not Verified, with a fallback
// phase of its own — while the request that avoids the row stays a
// verified NDP answer. The batch's tree, pinned as degraded, carries one
// fallback child per recomputed request.
func TestTelemetryBatchFallbackTree(t *testing.T) {
	reg := NewTelemetry()
	h := newFaultHarness(t, 79, fastTransport(), WithTelemetry(reg), WithFallback(1))
	h.mem.FlipBit(h.tab.Geometry().Layout.RowAddr(4)+2, 3)

	reqs := []Request{
		{Idx: []int{1, 4}, Weights: []uint64{2, 3}},
		{Idx: []int{2, 9, 30}, Weights: []uint64{1, 6, 5}},
		{Idx: []int{4, 7}, Weights: []uint64{5, 1}},
	}
	tampered := []bool{true, false, true}
	out, err := h.tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("tampered batch not served: %v", err)
	}
	for i := range out {
		want := plainSum(h.rows, reqs[i].Idx, reqs[i].Weights, 32, 0xFFFFFFFF)
		for j := range want {
			if out[i].Values[j] != want[j] {
				t.Fatalf("request %d col %d: %d != %d", i, j, out[i].Values[j], want[j])
			}
		}
		fellBack := out[i].Degraded && !out[i].Verified && out[i].Timing.Fallback > 0
		served := !out[i].Degraded && out[i].Verified && out[i].Timing.Fallback == 0
		if (tampered[i] && !fellBack) || (!tampered[i] && !served) {
			t.Fatalf("request %d (tampered %v): degraded=%v verified=%v timing %+v",
				i, tampered[i], out[i].Degraded, out[i].Verified, out[i].Timing)
		}
	}
	if got := histCount(reg, "secndp_phase_fallback_seconds"); got != 2 {
		t.Errorf("fallback phase histogram count = %d, want 2", got)
	}
	var pin *telemetry.TraceSummary
	for _, s := range reg.SlowTraces() {
		if s.Trace == out[0].Trace {
			pin = &s
		}
	}
	if pin == nil || pin.Op != "query_batch" || pin.PinReason != "degraded" {
		t.Fatalf("batch trace %s not pinned as degraded: %+v", out[0].Trace, reg.SlowTraces())
	}
	if n := rootChildren(t, reg, out[0].Trace)["fallback"]; n != 2 {
		t.Fatalf("degraded batch tree has %d fallback children, want 2", n)
	}
}

// TestTelemetryOperationRoots: create_table and reencrypt open a root
// span whatever their outcome, so a failed or refused operation can be
// explained from the trace listing alone.
func TestTelemetryOperationRoots(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	newest := func(op, class string) telemetry.TraceSummary {
		t.Helper()
		recent := reg.RecentTraces(1)
		if len(recent) != 1 || recent[0].Op != op || recent[0].ErrClass != class {
			t.Fatalf("newest trace = %+v, want %s root with err_class %q", recent, op, class)
		}
		return recent[0]
	}
	ctx := context.Background()
	if _, err := eng.CreateTable(ctx, LocalBackend(NewMemory()), TableSpec{Rows: 4, Cols: 3}, nil); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("bad geometry = %v, want ErrBadGeometry", err)
	}
	newest("create_table", telemetry.ErrClassInvalid)

	rows := testRows(rand.New(rand.NewSource(9)), 8, 32, 1<<20)
	tab, err := eng.CreateTable(ctx, LocalBackend(NewMemory()), TableSpec{Rows: 8, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	newest("create_table", "")

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := tab.Reencrypt(canceled, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Reencrypt = %v", err)
	}
	newest("reencrypt", telemetry.ErrClassCanceled)
	if err := tab.Reencrypt(ctx, nil); err != nil {
		t.Fatal(err)
	}
	newest("reencrypt", "")

	h := newFaultHarness(t, 80, fastTransport(), WithTelemetry(reg))
	newest("create_table", "")
	if err := h.tab.Reencrypt(ctx, nil); err == nil {
		t.Fatal("Reencrypt on a remote table succeeded")
	}
	// The refusal carries no sentinel, so it lands in the default class;
	// what matters is that the refused call is on record.
	if s := newest("reencrypt", telemetry.ErrClassTransport); !strings.Contains(s.Err, "in this process") {
		t.Fatalf("refused Reencrypt root err = %q", s.Err)
	}
}

// TestDebugTracesWalk walks the tracing surface as an operator would,
// against a real engine's Handler: take the first trace off
// /debug/traces, fetch its tree from /debug/trace/{id}, and find a
// Reencrypt listed as a reencrypt root.
func TestDebugTracesWalk(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(rand.New(rand.NewSource(10)), 16, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: 16, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if _, err := tab.Query(context.Background(), Request{Idx: []int{1, 5}, Weights: []uint64{2, 7}}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Reencrypt(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	var listing []struct {
		Trace string `json:"trace"`
		Op    string `json:"op"`
	}
	getJSON(t, srv.URL+"/debug/traces?n=64", &listing)
	if len(listing) == 0 || listing[0].Trace == "" {
		t.Fatalf("/debug/traces lists no trace: %+v", listing)
	}
	var tree struct {
		Trace string       `json:"trace"`
		Tree  []*traceNode `json:"tree"`
	}
	getJSON(t, srv.URL+"/debug/trace/"+listing[0].Trace, &tree)
	if tree.Trace != listing[0].Trace || len(tree.Tree) == 0 {
		t.Fatalf("/debug/trace/%s = %+v", listing[0].Trace, tree)
	}
	if listing[0].Op != "reencrypt" || tree.Tree[0].Op != "reencrypt" {
		t.Fatalf("newest root = %q (tree %q), want the reencrypt", listing[0].Op, tree.Tree[0].Op)
	}
}

// TestTelemetryDisabledIsInert pins the default: no registry, nil
// Engine.Telemetry, and Result.Timing still populated.
func TestTelemetryDisabledIsInert(t *testing.T) {
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Telemetry() != nil {
		t.Fatal("engine without WithTelemetry must report a nil registry")
	}
	rng := rand.New(rand.NewSource(6))
	rows := testRows(rng, 16, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Name: "inert", Rows: 16, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	res, err := tab.Query(context.Background(), Request{Idx: []int{1}, Weights: []uint64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Total <= 0 {
		t.Fatalf("Timing must be populated without telemetry: %+v", res.Timing)
	}
}

// TestTelemetryBatchSharedRegistry checks QueryBatch records every
// element query plus the batch counter, concurrently, without racing.
func TestTelemetryBatchSharedRegistry(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	rows := testRows(rng, 32, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Name: "batch", Rows: 32, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Idx: []int{i, i + 8}, Weights: []uint64{1, 2}}
	}
	if _, err := tab.QueryBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, "secndp_batches_total"); got != 1 {
		t.Errorf("secndp_batches_total = %d, want 1", got)
	}
	if got := counterValue(reg, "secndp_queries_total"); got != 8 {
		t.Errorf("secndp_queries_total = %d, want 8", got)
	}
}

// TestTelemetryFailedBatchNotPipelined: a batch whose NDP exchange fails
// as a whole (here: its context is cancelled before the call) answered
// nothing through the pipeline, so it counts as a batch but not as a
// pipelined one, and secndp_batch_pipelined_total keeps equal to
// secndp_batch_wire_ops_total.
func TestTelemetryFailedBatchNotPipelined(t *testing.T) {
	reg := NewTelemetry()
	eng, err := New(testKey, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	rows := testRows(rng, 32, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: 32, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	reqs := []Request{{Idx: []int{1, 2}, Weights: []uint64{1, 2}}, {Idx: []int{3}, Weights: []uint64{1}}}
	if _, err := tab.QueryBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tab.QueryBatch(ctx, reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch under a cancelled context: got %v, want context.Canceled", err)
	}
	if got := counterValue(reg, "secndp_batches_total"); got != 2 {
		t.Errorf("secndp_batches_total = %d, want 2", got)
	}
	pipelined := counterValue(reg, "secndp_batch_pipelined_total")
	if wire := counterValue(reg, "secndp_batch_wire_ops_total"); pipelined != 1 || wire != 1 {
		t.Errorf("secndp_batch_pipelined_total = %d, secndp_batch_wire_ops_total = %d, want 1 and 1", pipelined, wire)
	}
}
