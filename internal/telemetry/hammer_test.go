package telemetry

import (
	"context"
	"io"
	"sync"
	"testing"
)

// TestHammerConcurrentRecordAndExport is the race-detector workout: N
// goroutines record counters, gauges, histograms, and span trees at full
// speed while M goroutines continuously snapshot, export Prometheus text,
// and list recent traces. Run under `go test -race` (CI does); correctness
// here is "no race, no panic, no lost increments on the counter, and a
// full ring of whole trees".
func TestHammerConcurrentRecordAndExport(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total", "hammered counter")
	g := reg.Gauge("hammer_gauge", "hammered gauge")
	h := reg.Histogram("hammer_seconds", "hammered histogram", nil)

	const (
		recorders = 8
		readers   = 4
		perG      = 5_000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = reg.Snapshot()
				_ = reg.WriteProm(io.Discard)
				_ = reg.RecentTraces(32)
				// Late registration while recording is in flight must be
				// safe too (idempotent constructor under the cold lock).
				reg.Counter("hammer_total", "").Value()
			}
		}()
	}

	var rec sync.WaitGroup
	for r := 0; r < recorders; r++ {
		rec.Add(1)
		go func(seed int) {
			defer rec.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Set(int64(i - seed))
				h.ObserveNs(uint64(i%4096) * 100)
				if i%64 == 0 {
					_, root := reg.StartSpan(context.Background(), "hammer")
					root.Child("pad").End()
					root.End()
				}
			}
		}(r)
	}
	rec.Wait()
	close(stop)
	wg.Wait()

	if got, want := c.Value(), uint64(recorders*perG); got != want {
		t.Fatalf("counter lost increments under hammer: got %d want %d", got, want)
	}
	if h.Count() != uint64(recorders*perG) {
		t.Fatalf("histogram lost observations: got %d want %d", h.Count(), recorders*perG)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatal("snapshot empty after hammer")
	}
	recent := reg.RecentTraces(DefaultCompletedTraces)
	if len(recent) != DefaultCompletedTraces {
		t.Fatalf("ring holds %d traces after hammer, want %d", len(recent), DefaultCompletedTraces)
	}
	for _, s := range recent {
		if s.Op != "hammer" || s.Spans != 2 {
			t.Fatalf("hammered trace = %+v, want a hammer root with one child", s)
		}
	}
}
