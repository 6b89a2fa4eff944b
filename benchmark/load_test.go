package main

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime injects one dispatcher stall and checks
// that the ops it delayed are charged for it: an instant op dispatched
// late must still show the lateness as latency, and the lag series must
// show how late the generator ran.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate    = 1000 // 1 ms gaps
		stallAt = 20
		stall   = 30 * time.Millisecond
	)
	calls := 0
	lp := loop{
		exec: func(*request) opResult { return opResult{done: time.Now()} },
		sleepUntil: func(due time.Time) {
			sleepUntil(due)
			if calls++; calls == stallAt+1 {
				time.Sleep(stall)
			}
		},
	}
	p := &pool{reqs: make([]request, 1)}
	ph := openLoop(context.Background(), lp, p, rate, 100*time.Millisecond)

	if ph.attempted != 100 || ph.failed != 0 || len(ph.lat) != 100 {
		t.Fatalf("attempted %d failed %d latencies %d, want 100/0/100", ph.attempted, ph.failed, len(ph.lat))
	}
	// Op stallAt was due just before the stall and dispatched after it;
	// ops due during the stall were dispatched in a burst when it ended.
	late := 0
	for _, l := range ph.lat {
		if l >= us(stall)/2 {
			late++
		}
	}
	if late < 10 || late > 40 {
		t.Errorf("%d ops show at least half the stall as latency, want about %d", late, int(stall/time.Millisecond))
	}
	if max := percentile(append([]float64(nil), ph.lag...), 1); max < us(stall)*0.9 {
		t.Errorf("largest dispatcher lag %.0f us, want at least %.0f", max, us(stall)*0.9)
	}
	if before := percentile(append([]float64(nil), ph.lat[:stallAt]...), 1); before > us(stall)/2 {
		t.Errorf("an op before the stall took %.0f us", before)
	}
}

// TestOpenLoopWaitsAtInflightCap holds every op until well after the
// phase should have ended: the dispatcher must wait at the cap rather
// than drop or fail anything, and give the schedule up once it has fallen
// a whole phase behind.
func TestOpenLoopWaitsAtInflightCap(t *testing.T) {
	release := make(chan struct{})
	lp := loop{
		exec:       func(*request) opResult { <-release; return opResult{done: time.Now()} },
		sleepUntil: func(time.Time) {},
	}
	p := &pool{reqs: make([]request, 1)}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	const n = inflightCap + 100
	ph := openLoop(context.Background(), lp, p, n*100, 10*time.Millisecond)
	if ph.attempted != inflightCap || ph.failed != 0 || len(ph.lat) != inflightCap {
		t.Errorf("attempted %d failed %d latencies %d, want the %d under the cap attempted and none failed", ph.attempted, ph.failed, len(ph.lat), inflightCap)
	}
	if ph.capWaits != 1 {
		t.Errorf("dispatcher waited at the cap %d times, want once before giving the schedule up", ph.capWaits)
	}
}
