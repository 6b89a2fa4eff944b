package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own tracing: spans recorded from this package, around
// the calls into each layer's public functions, kept in memory and written
// out when the run ends. Nothing inside the program is instrumented.
//
// Two kinds of span share the model. Load spans wrap each op of the traced
// slices (one root per op, no children — the program is a black box from
// here). Ladder spans replay a sampled request rung by rung: each rung is
// a real timed call, and its parent is the rung that makes that call in
// production, so a request's ladder spans form the tree its op would have
// if the layers could be traced from outside.

// span is one timed call. Times are nanoseconds since the recorder started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"` // request id: spans of one request share it
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Overlapped marks a call that production runs concurrently with its
	// siblings; the parent then waits for the slowest of them, not the sum.
	Overlapped bool `json:"overlapped,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 } // microseconds

// recorder collects spans. maxSpans bounds memory on the fast workloads;
// spans beyond it are counted, not kept.
type recorder struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	next    uint64
	dropped int
}

const maxSpans = 200_000

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished call and returns its id for children to name.
func (r *recorder) add(parent, req uint64, name, layer string, start, end time.Time, overlapped bool) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	if len(r.spans) >= maxSpans {
		r.dropped++
		return r.next
	}
	r.spans = append(r.spans, span{
		ID: r.next, Parent: parent, Req: req, Name: name, Layer: layer,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Overlapped: overlapped,
	})
	return r.next
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Dropped: r.dropped, Spans: r.spans})
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// selfTime is a span's duration minus what its children account for: the
// sum of its serial children plus the slowest of its overlapped ones.
func selfTime(s span, children []span) float64 {
	self := s.dur()
	slowest := 0.0
	for _, c := range children {
		if c.Overlapped {
			if d := c.dur(); d > slowest {
				slowest = d
			}
			continue
		}
		self -= c.dur()
	}
	return self - slowest
}

// chainSelf walks one request's tree from root down the blocking chain —
// every serial child, and of overlapped children only the slowest — and
// returns each layer's self time on it. By construction the values sum to
// the root's duration: each layer owns its microseconds once.
func chainSelf(root span, byParent map[uint64][]span) map[string]float64 {
	out := map[string]float64{}
	var walk func(s span)
	walk = func(s span) {
		children := byParent[s.ID]
		out[s.Layer] += selfTime(s, children)
		var slowest *span
		for i := range children {
			c := children[i]
			if !c.Overlapped {
				walk(c)
			} else if slowest == nil || c.dur() > slowest.dur() {
				slowest = &children[i]
			}
		}
		if slowest != nil {
			walk(*slowest)
		}
	}
	walk(root)
	return out
}

// layerSelfMedians reduces the ladder to one self time per layer: for
// every root span named rootName, the chain self times of its tree; then
// per layer the median over requests (a layer a request's chain does not
// cross counts as 0 for that request).
func layerSelfMedians(spans []span, rootName string) map[string]float64 {
	byParent := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	var chains []map[string]float64
	layers := map[string]bool{}
	for _, s := range spans {
		if s.Parent != 0 || s.Name != rootName {
			continue
		}
		chain := chainSelf(s, byParent)
		for layer := range chain {
			layers[layer] = true
		}
		chains = append(chains, chain)
	}
	out := map[string]float64{}
	for layer := range layers {
		xs := make([]float64, len(chains))
		for i, chain := range chains {
			xs[i] = chain[layer]
		}
		out[layer] = median(xs)
	}
	return out
}
