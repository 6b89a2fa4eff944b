package perf

import "testing"

// gatherColdOverWarmMax bounds Report.Gather.ColdOverWarm: twice the 1.4–1.6
// the prefetching gather reads on the 2-vCPU box it was written on (the
// copying, one-miss-at-a-time gather before it read 3.0–3.2 there).
const gatherColdOverWarmMax = 3.0

// TestGatherColdOverWarm is the gate behind `make gather-check` and CI:
// gathering rows that miss the cache must cost less than
// gatherColdOverWarmMax times gathering rows that hit it, or the gather
// has gone back to waiting out one miss at a time. The best of three
// readings counts, since a noisy neighbour slows one side of a ratio as
// easily as the other.
func TestGatherColdOverWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("times two one-second benchmarks per attempt")
	}
	for attempt := 1; attempt <= 3; attempt++ {
		var res []Result
		for _, b := range gatherBenches() {
			name, r := b()
			res = append(res, Result{Name: name, NsPerOp: nsPerOp(r)})
		}
		g := gatherReport(res)
		if g == nil {
			t.Fatalf("gather benchmarks did not run: %+v", res)
		}
		t.Logf("attempt %d: cold %.1f ns/row, warm %.1f ns/row, cold_over_warm %.2f (bound %.1f)",
			attempt, g.ColdNsPerRow, g.WarmNsPerRow, g.ColdOverWarm, gatherColdOverWarmMax)
		if g.ColdOverWarm < gatherColdOverWarmMax {
			return
		}
	}
	t.Fatalf("cold_over_warm stayed at or above %.1f: the NDP gather is latency-bound", gatherColdOverWarmMax)
}
