package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrentSum proves the striped counter loses no increments
// under heavy concurrent writers: the summed stripes must equal exactly
// the number of increments issued.
func TestCounterConcurrentSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "test counter")
	const goroutines, perG = 32, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Fatalf("counter lost increments: got %d want %d", got, want)
	}
}

// TestHistogramBucketBoundaries pins the Prometheus bucket semantics:
// an observation equal to a bound lands in that bound's bucket (le is
// inclusive), one nanosecond above it spills into the next, and values
// beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []uint64{100, 1_000, 10_000}
	cases := []struct {
		ns     uint64
		bucket int // index into counts (len(bounds)+1; last is +Inf)
	}{
		{0, 0},
		{99, 0},
		{100, 0}, // on-bound: inclusive
		{101, 1}, // one past: next bucket
		{1_000, 1},
		{1_001, 2},
		{10_000, 2},
		{10_001, 3}, // beyond the last bound: +Inf
		{1 << 40, 3},
	}
	for _, tc := range cases {
		reg := NewRegistry()
		h := reg.Histogram("test_seconds", "test histogram", bounds)
		h.ObserveNs(tc.ns)
		snap := h.snap()
		for i, c := range snap.Counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("ObserveNs(%d): bucket %d = %d, want %d", tc.ns, i, c, want)
			}
		}
		if snap.SumNs != tc.ns || snap.Count != 1 {
			t.Errorf("ObserveNs(%d): sum=%d count=%d", tc.ns, snap.SumNs, snap.Count)
		}
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "", []uint64{10})
	h.Observe(-time.Second)
	if snap := h.snap(); snap.Counts[0] != 1 || snap.SumNs != 0 {
		t.Fatalf("negative observation not clamped: %+v", snap)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	newHistogram("bad", "", []uint64{10, 10})
}

// TestNilSafety drives every recorder and reader through nil receivers —
// the telemetry-disabled configuration must never dereference.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(time.Millisecond)
	h.ObserveNs(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.SumNs() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	_, s := reg.StartSpan(context.Background(), "q")
	s.End()
	if got := reg.RecentTraces(10); got != nil {
		t.Fatalf("nil registry traces = %v", got)
	}
	if s := reg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := reg.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	reg.PublishExpvar("nil-registry")
}

// TestRegistryIdempotentConstructors proves independent subsystems asking
// for one name converge on the same metric.
func TestRegistryIdempotentConstructors(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shared_total", "first")
	b := reg.Counter("shared_total", "second help ignored")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("shared counter = %d, want 2", a.Value())
	}
	h1 := reg.Histogram("shared_seconds", "", []uint64{10, 20})
	h2 := reg.Histogram("shared_seconds", "", []uint64{999})
	if h1 != h2 {
		t.Fatal("same name must return the same histogram (existing bounds win)")
	}
}

func TestSnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta_total", "").Add(1)
	reg.Counter("alpha_total", "").Add(2)
	reg.Gauge("mid_gauge", "").Set(7)
	s := reg.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "alpha_total" || s.Counters[1].Name != "zeta_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counters[0].Value != 2 || s.Counters[1].Value != 1 {
		t.Fatalf("counter values wrong: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 7 {
		t.Fatalf("gauge snapshot wrong: %+v", s.Gauges)
	}
}

// TestRecentTracesRing proves the completed-trace ring keeps the newest
// trees, newest first, and wraps at capacity.
func TestRecentTracesRing(t *testing.T) {
	reg := NewRegistry()
	var ids []TraceID
	for i := 0; i < DefaultCompletedTraces+10; i++ {
		_, s := reg.StartSpan(context.Background(), fmt.Sprintf("op%d", i))
		s.End()
		ids = append(ids, s.Trace())
	}
	got := reg.RecentTraces(DefaultCompletedTraces * 2)
	if len(got) != DefaultCompletedTraces {
		t.Fatalf("ring holds %d traces, want %d", len(got), DefaultCompletedTraces)
	}
	for i, sum := range got {
		want := len(ids) - 1 - i
		if sum.Trace != ids[want].String() || sum.Op != fmt.Sprintf("op%d", want) {
			t.Fatalf("trace %d = %+v, want op%d (newest first)", i, sum, want)
		}
	}
	if short := reg.RecentTraces(3); len(short) != 3 || short[0].Trace != ids[len(ids)-1].String() {
		t.Fatalf("RecentTraces(3) = %+v", short)
	}
}

// TestWriteProm pins the text exposition format: HELP/TYPE headers,
// cumulative le buckets in seconds, _sum/_count, and name sanitization.
func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "Requests.").Add(3)
	reg.Gauge("breaker_state", "State.").Set(2)
	h := reg.Histogram("lat_seconds", "Latency.", []uint64{1_000, 2_500_000})
	h.ObserveNs(500)       // <= 1µs bucket
	h.ObserveNs(1_000_000) // <= 2.5ms bucket
	h.ObserveNs(5_000_000) // +Inf
	reg.Counter("weird/name-total", "").Inc()

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total Requests.",
		"# TYPE reqs_total counter",
		"reqs_total 3",
		"# TYPE breaker_state gauge",
		"breaker_state 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1e-06"} 1`,
		`lat_seconds_bucket{le="0.0025"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 0.0060005",
		"lat_seconds_count 3",
		"weird_name_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q in:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ok_name:x9": "ok_name:x9",
		"has/slash":  "has_slash",
		"9starts":    "_starts",
		"":           "_",
		"dash-and é": "dash_and__",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
