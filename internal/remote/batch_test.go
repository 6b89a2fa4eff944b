package remote

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/telemetry"
)

// startInstrumentedServer is startServer with a telemetry registry
// attached, so tests can count operations per opcode on the wire.
func startInstrumentedServer(t *testing.T) (*telemetry.Registry, *memory.Space, string) {
	t.Helper()
	mem := memory.NewSpace()
	srv := NewServer(mem)
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return reg, mem, addr
}

func opCount(reg *telemetry.Registry, name string) uint64 {
	return reg.Counter("secndp_server_ops_"+name+"_total", "").Value()
}

// TestRemoteBatchOneRoundTrip is the headline acceptance check for the
// batched pipeline: N verified queries over a remote NDP cost exactly one
// opBatch exchange — and zero per-query weighted-sum/tag-sum ops — as
// counted by the server's own per-opcode telemetry.
func TestRemoteBatchOneRoundTrip(t *testing.T) {
	reg, mem, addr := startInstrumentedServer(t)
	client := dial(t, addr)
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 32, 32)
	rng := rand.New(rand.NewSource(71))
	rows := randRows(rng, 32, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]core.BatchRequest, 12)
	for i := range reqs {
		reqs[i] = core.BatchRequest{
			Idx:     []int{rng.Intn(8), rng.Intn(8)}, // duplicate-heavy on purpose
			Weights: []uint64{1 + rng.Uint64()%8, 1 + rng.Uint64()%8},
		}
	}
	var stats core.BatchStats
	out := tab.QueryBatchCtx(context.Background(), client, reqs,
		core.QueryOptions{Verify: true, Stats: &stats})
	if err := core.FirstError(out); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		want := make([]uint64, 32)
		for k, r := range reqs[i].Idx {
			for j := range want {
				want[j] = (want[j] + reqs[i].Weights[k]*rows[r][j]) & 0xFFFFFFFF
			}
		}
		for j := range want {
			if out[i].Res[j] != want[j] {
				t.Fatalf("request %d col %d: %d != %d", i, j, out[i].Res[j], want[j])
			}
		}
	}
	if !stats.Pipelined || stats.WireOps != 1 {
		t.Fatalf("batch did not coalesce: %+v", stats)
	}
	if got := opCount(reg, "batch"); got != 1 {
		t.Fatalf("server served %d batch ops, want exactly 1", got)
	}
	if ws, ts := opCount(reg, "weighted_sum"), opCount(reg, "tag_sum"); ws != 0 || ts != 0 {
		t.Fatalf("batch leaked per-query ops: %d weighted_sum, %d tag_sum", ws, ts)
	}
	if got := opCount(reg, "caps"); got != 1 {
		t.Fatalf("capability probe ran %d times, want exactly 1 (cached)", got)
	}
}

// TestRemoteBatchPerSubErrors: malformed sub-requests come back as
// per-sub server errors inside a successful batch reply, siblings are
// unaffected, and the connection stays in sync afterwards.
func TestRemoteBatchPerSubErrors(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 16, 32)
	rng := rand.New(rand.NewSource(72))
	rows := randRows(rng, 16, 32, 1<<20)
	if _, err := scheme.EncryptTable(mem, geo, 1, rows); err != nil {
		t.Fatal(err)
	}
	reqs := []core.BatchRequest{
		{Idx: []int{0, 3}, Weights: []uint64{1, 2}},
		{Idx: []int{99}, Weights: []uint64{1}},   // out of range
		{Idx: []int{1, 2}, Weights: []uint64{1}}, // length mismatch
		{},                                       // empty: valid, zero sums
		{Idx: []int{5}, Weights: []uint64{7}},
	}
	res, err := client.WeightedTagSumBatch(context.Background(), geo, reqs, true)
	if err != nil {
		t.Fatalf("batch-level error for per-sub problems: %v", err)
	}
	var se *serverError
	if !errors.As(res[1].Err, &se) || !strings.Contains(res[1].Err.Error(), "row 99") {
		t.Fatalf("out-of-range sub error = %v, want serverError naming row 99", res[1].Err)
	}
	if !errors.As(res[2].Err, &se) {
		t.Fatalf("length-mismatch sub error = %v, want serverError", res[2].Err)
	}
	for _, i := range []int{0, 3, 4} {
		if res[i].Err != nil {
			t.Fatalf("healthy sub-request %d failed: %v", i, res[i].Err)
		}
		if len(res[i].Sums) != 32 {
			t.Fatalf("sub-request %d: %d sums, want 32", i, len(res[i].Sums))
		}
	}
	for j := range res[3].Sums {
		if res[3].Sums[j] != 0 {
			t.Fatal("empty sub-request returned non-zero sums")
		}
	}
	// The stream must still be usable: a follow-up single op round-trips.
	if err := client.PingContext(context.Background()); err != nil {
		t.Fatalf("connection desynced after per-sub errors: %v", err)
	}
}

// TestRemoteBatchVerifyWithoutTags: asking a tag-less geometry for tag
// sums is a batch-level rejection — one statusErr, no partial answers —
// and the connection survives it.
func TestRemoteBatchVerifyWithoutTags(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagNone, 8, 32)
	rng := rand.New(rand.NewSource(73))
	rows := randRows(rng, 8, 32, 1<<20)
	if _, err := scheme.EncryptTable(mem, geo, 1, rows); err != nil {
		t.Fatal(err)
	}
	reqs := []core.BatchRequest{{Idx: []int{0}, Weights: []uint64{1}}}
	_, err := client.WeightedTagSumBatch(context.Background(), geo, reqs, true)
	var se *serverError
	if !errors.As(err, &se) {
		t.Fatalf("verify-without-tags error = %v, want batch-level serverError", err)
	}
	if err := client.PingContext(context.Background()); err != nil {
		t.Fatalf("connection desynced after batch rejection: %v", err)
	}
	// Without verification the same batch is fine.
	res, err := client.WeightedTagSumBatch(context.Background(), geo, reqs, false)
	if err != nil {
		t.Fatalf("unverified batch on TagNone failed: %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("unverified sub-request on TagNone failed: %v", res[0].Err)
	}
}

// TestRemoteBatchOversized: client-side guard on the advertised frame
// limit, before any bytes hit the wire.
func TestRemoteBatchOversized(t *testing.T) {
	_, _, addr := startServer(t)
	client := dial(t, addr)
	geo := testGeometry(memory.TagSep, 8, 32)
	reqs := make([]core.BatchRequest, maxBatchSubs+1)
	if _, err := client.WeightedTagSumBatch(context.Background(), geo, reqs, false); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestReliableBatchEndToEnd drives the batch path through the reliable
// transport: capability probe, coalesced batch, and the cached probe
// result on a second batch.
func TestReliableBatchEndToEnd(t *testing.T) {
	reg, mem, addr := startInstrumentedServer(t)
	rc, err := DialReliable(context.Background(), addr, ReliableConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond,
			MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 16, 32)
	rng := rand.New(rand.NewSource(74))
	rows := randRows(rng, 16, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		reqs := []core.BatchRequest{
			{Idx: []int{1, 5, 1}, Weights: []uint64{2, 3, 4}},
			{Idx: []int{5, 9}, Weights: []uint64{1, 7}},
		}
		var stats core.BatchStats
		out := tab.QueryBatchCtx(context.Background(), rc, reqs,
			core.QueryOptions{Verify: true, Stats: &stats})
		if err := core.FirstError(out); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !stats.Pipelined || stats.WireOps != 1 {
			t.Fatalf("round %d did not coalesce: %+v", round, stats)
		}
	}
	if got := opCount(reg, "batch"); got != 2 {
		t.Fatalf("server served %d batch ops, want 2", got)
	}
	// Each pooled connection probes the server's capabilities before its
	// first batch, but the cached answer must keep the probe count bounded
	// by connections, not by batches.
	if caps := opCount(reg, "caps"); caps > opCount(reg, "ping")+2 {
		t.Fatalf("capability probe not cached: %d caps ops", caps)
	}
}

// TestRemoteBatchTamperDetected: the aggregated verifier must reject a
// batch whose rows were corrupted server-side, blaming only the touched
// sub-requests.
func TestRemoteBatchTamperDetected(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 16, 32)
	rng := rand.New(rand.NewSource(75))
	rows := randRows(rng, 16, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	mem.FlipBit(geo.Layout.RowAddr(6)+1, 4)
	reqs := []core.BatchRequest{
		{Idx: []int{0, 1}, Weights: []uint64{1, 1}},
		{Idx: []int{6}, Weights: []uint64{1}}, // touches the tampered row
		{Idx: []int{2, 3}, Weights: []uint64{5, 9}},
	}
	var stats core.BatchStats
	out := tab.QueryBatchCtx(context.Background(), client, reqs,
		core.QueryOptions{Verify: true, Stats: &stats})
	if !stats.Pipelined {
		t.Fatal("batch did not pipeline")
	}
	if !errors.Is(out[1].Err, core.ErrVerification) {
		t.Fatalf("tampered sub-request error = %v, want ErrVerification", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("clean sub-request %d rejected: %v", i, out[i].Err)
		}
	}
}

// TestBatchCallLifecycle pins the split-phase exchange's release rules.
// A reply read whole reaches the fold and leaves the connection usable,
// even when the fold panics; an aborted exchange poisons its connection;
// a pooled connection aborted mid-exchange is closed, not pooled, and
// settles the breaker like a failed attempt, which one failure leaves
// closed.
func TestBatchCallLifecycle(t *testing.T) {
	_, mem, addr := startInstrumentedServer(t)
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 16, 8)
	rows := randRows(rand.New(rand.NewSource(72)), 16, 8, 1<<20)
	c := dial(t, addr)
	if _, err := scheme.EncryptTable(mem, geo, 1, rows); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := []core.BatchRequest{{Idx: []int{1, 2}, Weights: []uint64{3, 4}}, {Idx: []int{5}, Weights: []uint64{1}}}
	oracle, err := c.WeightedTagSumBatch(ctx, geo, reqs, true)
	if err != nil {
		t.Fatal(err)
	}

	frames := []BatchFrame{{Ctx: ctx, Geo: geo, Reqs: reqs, Verify: true}}
	call, err := c.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	folded := 0
	if err := call.Finish(func(_ int, res []core.NDPBatchResult, _ error) {
		folded = len(res)
		for i := range res {
			if !slices.Equal(res[i].Sums, oracle[i].Sums) || !res[i].Tag.Equal(oracle[i].Tag) {
				t.Errorf("sub-result %d differs from WeightedTagSumBatch's", i)
			}
		}
	}); err != nil || folded != len(reqs) {
		t.Fatalf("Finish: %v, fold saw %d results", err, folded)
	}

	call, err = c.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		call.Finish(func(int, []core.NDPBatchResult, error) { panic("fold") })
	}()
	if !c.Usable() {
		t.Fatal("a fold panic after a whole reply poisoned the connection")
	}
	if _, err := c.WeightedTagSumBatch(ctx, geo, reqs, true); err != nil {
		t.Fatalf("batch after a fold panic: %v", err)
	}

	call, err = c.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	call.Abort()
	if c.Usable() {
		t.Fatal("an aborted exchange left its connection usable")
	}

	rc := dialReliable(t, addr, ReliableConfig{Retry: fastRetry()})
	call, err = rc.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	call.Abort()
	if st := rc.Stats(); st.BreakerState != "closed" || st.Dials != 1 {
		t.Fatalf("after an abort: breaker %s, %d dials", st.BreakerState, st.Dials)
	}
	if _, err := rc.WeightedTagSumBatch(ctx, geo, reqs, true); err != nil {
		t.Fatalf("reliable batch after an abort: %v", err)
	}
	if d := rc.Stats().Dials; d != 2 {
		t.Fatalf("%d dials: the aborted connection must be redialed, not reused", d)
	}
}
