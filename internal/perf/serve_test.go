package perf

import (
	"testing"

	"secndp/internal/telemetry"
)

// TestServeStageQuick runs the load harness end to end in quick mode and
// pins the structural invariants; the hard performance ratios (speedup,
// saturation multiples) are gated in CI's bench-smoke job where the run
// isn't sharing the machine with the race detector and sibling tests.
func TestServeStageQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness stage is seconds-long")
	}
	reg := telemetry.NewRegistry()
	rep, err := serveStage(true, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline %.0f qps, coalesced %.0f qps (%.2fx); coalescing factor %.2f, cache hit rate %.2f; p50/p99/p999 %.0f/%.0f/%.0f ns; offered %.0f achieved %.0f, p50 %.0f ns = %.2f x batch p50 %.0f ns; shed %d",
		rep.BaselineQPS, rep.CoalescedQPS, rep.SpeedupX, rep.CoalescingFactor, rep.CacheHitRate,
		rep.P50Ns, rep.P99Ns, rep.P999Ns, rep.OfferedQPS, rep.AchievedQPS,
		rep.OfferedP50Ns, rep.OfferedP50OverBatchP50, rep.BatchP50Ns, rep.Shed)
	if rep.Users != 64 || rep.Tables != 4 {
		t.Fatalf("fixture shape %d users x %d tables, want 64x4", rep.Users, rep.Tables)
	}
	if rep.BaselineQPS <= 0 || rep.CoalescedQPS <= 0 {
		t.Fatalf("degenerate QPS: baseline %.1f, coalesced %.1f", rep.BaselineQPS, rep.CoalescedQPS)
	}
	if rep.SpeedupX <= 1 {
		t.Fatalf("coalesced serving no faster than per-request fan-out: %.2fx", rep.SpeedupX)
	}
	if rep.CoalescingFactor <= 1 {
		t.Fatalf("coalescing factor %.2f, want > 1", rep.CoalescingFactor)
	}
	if rep.CacheHitRate <= 0 {
		t.Fatal("Zipfian workload produced zero cache hits")
	}
	if rep.P99Ns < rep.P50Ns || rep.P999Ns < rep.P99Ns {
		t.Fatalf("percentiles not monotone: p50 %.0f p99 %.0f p999 %.0f", rep.P50Ns, rep.P99Ns, rep.P999Ns)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatal("offered-load stage completed nothing")
	}
	if rep.BatchP50Ns <= 0 || rep.OfferedP50OverBatchP50 <= 0 {
		t.Fatalf("offered-load stage: batch p50 %.0f ns, lookup/batch ratio %.2f; the batch histogram saw nothing", rep.BatchP50Ns, rep.OfferedP50OverBatchP50)
	}
	// The gate holds one lookup in the slot and one in the queue, so the
	// other 30 of the burst are shed, exactly.
	if rep.Shed != 30 || !rep.ShedTyped {
		t.Fatalf("overload stage: shed=%d typed=%v, want 30 typed sheds", rep.Shed, rep.ShedTyped)
	}
	// The gated ratios surfaced as gauges on the registry.
	snap := reg.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "secndp_perf_serve_speedup_x_milli" && g.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("speedup gauge missing from registry")
	}
}

// TestHistMedianNs: the median of the observations between two
// snapshots, interpolated within its bucket.
func TestHistMedianNs(t *testing.T) {
	bounds := []uint64{100, 200, 400}
	before := telemetry.HistSnap{BoundsNs: bounds, Counts: []uint64{5, 0, 0, 0}}
	after := telemetry.HistSnap{BoundsNs: bounds, Counts: []uint64{5, 2, 6, 0}}
	// 8 new observations: 2 in (100,200], 6 in (200,400]; the 4th sits a
	// third of the way through the second of those.
	if got, want := histMedianNs(before, after), 200+200*2.0/6; got != want {
		t.Fatalf("median %.1f, want %.1f", got, want)
	}
	if got := histMedianNs(after, after); got != 0 {
		t.Fatalf("median of no observations %.1f, want 0", got)
	}
	inf := telemetry.HistSnap{BoundsNs: bounds, Counts: []uint64{0, 0, 0, 3}}
	if got := histMedianNs(telemetry.HistSnap{}, inf); got != 400 {
		t.Fatalf("median in the +Inf bucket %.1f, want its lower bound 400", got)
	}
}
