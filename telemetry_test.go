package secndp

import (
	"context"
	"math/rand"
	"strings"
	"testing"
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

	// The trace ring carries the spans, newest first, phases attributed.
	spans := reg.Traces(10)
	if len(spans) != 4 { // 1 encrypt + 3 queries
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Op != "query" || !spans[0].Verified {
		t.Fatalf("newest span = %+v", spans[0])
	}
	if spans[0].Phases[0] == 0 {
		t.Error("span missing pad phase")
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
// loopback server, kills it, and checks the transport counters, the
// degradation counter, and the fallback phase all land in one registry.
func TestTelemetryRemoteDegraded(t *testing.T) {
	reg := NewTelemetry()
	h := newFaultHarness(t, 77, fastTransport(), WithTelemetry(reg), WithFallback(1))

	if _, err := h.checkQuery(t, []int{1, 4}, []uint64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, "secndp_provisions_total"); got != 1 {
		t.Errorf("secndp_provisions_total = %d, want 1", got)
	}
	if counterValue(reg, "secndp_transport_attempts_total") == 0 {
		t.Error("transport attempts not mirrored onto the registry")
	}

	h.srv.Close()
	h.proxy.Close()
	res, err := h.checkQuery(t, []int{2, 9}, []uint64{1, 6})
	if err != nil {
		t.Fatalf("outage query not degraded: %v", err)
	}
	if !res.Degraded {
		t.Fatal("query after outage claims NDP service")
	}
	if res.Timing.Fallback <= 0 {
		t.Fatalf("degraded result has no fallback timing: %+v", res.Timing)
	}
	if got := counterValue(reg, "secndp_queries_degraded_total"); got != 1 {
		t.Errorf("secndp_queries_degraded_total = %d, want 1", got)
	}
	if counterValue(reg, "secndp_transport_retries_total") == 0 {
		t.Error("outage produced no transport retries")
	}
	if histCount(reg, "secndp_phase_fallback_seconds") != 1 {
		t.Error("fallback phase histogram empty")
	}
	spans := reg.Traces(1)
	if len(spans) != 1 || !spans[0].Degraded {
		t.Fatalf("newest span not degraded: %+v", spans)
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
