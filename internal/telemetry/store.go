package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The trace store assembles completed TraceSpans into per-trace trees
// and keeps them in three tiers:
//
//   - active: trees still accumulating spans (root not yet ended). This
//     tier also holds server-side partial trees — a remote.Server only
//     ever sees child spans, so its trees never "complete" and are
//     served partial from here.
//   - ring: a bounded ring of recently completed trees, whatever their
//     outcome. This is the rolling window a dashboard samples from.
//   - pinned (the flight recorder): completed trees whose root was
//     anomalous — slower than the configured threshold, Degraded, or
//     verify-failed — pinned separately so a burst of healthy traffic
//     cannot evict the evidence of the one bad query.
//
// All tiers are bounded FIFO; recording is one mutex acquisition per
// completed span — cold by construction (a span ends once, whereas
// metrics record per row/block).

const (
	// DefaultActiveTraces bounds trees still being assembled.
	DefaultActiveTraces = 256
	// DefaultCompletedTraces bounds the rolling ring of finished trees.
	DefaultCompletedTraces = 64
	// DefaultFlightRecorderCapacity bounds the pinned anomalous trees.
	DefaultFlightRecorderCapacity = 32
	// maxSpansPerTrace caps one tree's span count; extras are counted in
	// TraceTree.Dropped rather than retained (a runaway batch over a huge
	// cluster must not hold the store's memory hostage).
	maxSpansPerTrace = 512
)

// TraceTree is one trace's assembled spans, in completion order.
type TraceTree struct {
	Trace    TraceID     `json:"trace"`
	Spans    []TraceSpan `json:"-"`
	Complete bool        `json:"complete"`
	// PinReason is non-empty for flight-recorder trees: "slow",
	// "degraded", or "verify_failed".
	PinReason string `json:"pin_reason,omitempty"`
	// Dropped counts spans discarded past maxSpansPerTrace.
	Dropped int `json:"dropped,omitempty"`
}

// root returns the tree's root span, if it has one.
func (t *TraceTree) root() (TraceSpan, bool) {
	for i := range t.Spans {
		if t.Spans[i].Parent == 0 && !t.Spans[i].Remote {
			return t.Spans[i], true
		}
	}
	return TraceSpan{}, false
}

type traceStore struct {
	mu     sync.Mutex
	active map[TraceID]*TraceTree
	order  []TraceID // active trees, oldest first
	ring   []*TraceTree
	next   int
	full   bool
	pinned map[TraceID]*TraceTree
	pins   []TraceID // pinned trees, oldest first

	// slowNs is the flight-recorder latency threshold in nanoseconds
	// (0 disables slow-pinning). Atomic so SetSlowThreshold doesn't race
	// with root completion.
	slowNs atomic.Int64
}

// SetSlowThreshold sets the flight-recorder latency threshold: a trace
// whose root span runs longer is pinned with reason "slow". Zero
// disables slow-pinning (Degraded and verify-failed pinning stay on).
// No-op on a nil registry.
func (r *Registry) SetSlowThreshold(d time.Duration) {
	if r == nil {
		return
	}
	r.store.slowNs.Store(int64(d))
}

// SlowThreshold reports the current flight-recorder latency threshold.
func (r *Registry) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.store.slowNs.Load())
}

// recordTraceSpan files one completed span into its trace's tree; a
// root span completes the tree and moves it from the active tier into
// the ring (and, when anomalous, the flight recorder).
func (r *Registry) recordTraceSpan(s TraceSpan, isRoot bool) {
	if r == nil || s.Trace == 0 {
		return
	}
	st := &r.store
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active == nil {
		st.active = make(map[TraceID]*TraceTree)
		st.pinned = make(map[TraceID]*TraceTree)
		st.ring = make([]*TraceTree, DefaultCompletedTraces)
	}
	t := st.active[s.Trace]
	if t == nil {
		if len(st.order) >= DefaultActiveTraces {
			// Evict the oldest half-built tree; a trace that old with no
			// root is orphaned (caller crashed, or a server-side partial
			// nobody asked about).
			old := st.order[0]
			st.order = st.order[1:]
			delete(st.active, old)
		}
		t = &TraceTree{Trace: s.Trace}
		st.active[s.Trace] = t
		st.order = append(st.order, s.Trace)
	}
	if len(t.Spans) >= maxSpansPerTrace {
		t.Dropped++
		if !isRoot {
			return
		}
		// The root always lands — a tree without its root can neither
		// complete nor report its outcome.
	}
	t.Spans = append(t.Spans, s)
	if !isRoot {
		// Server-side trees never complete locally — the far-side client
		// owns the root — so a slow remote span must pin its (partial)
		// tree here, or a standalone server's -slowlog would never fire.
		if s.Remote {
			if ns := st.slowNs.Load(); ns > 0 && int64(s.Dur) >= ns {
				st.pin(s.Trace, t, "slow")
			}
		}
		return
	}

	// Root ended: the tree is complete. Move it out of the active tier.
	delete(st.active, s.Trace)
	for i, id := range st.order {
		if id == s.Trace {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	t.Complete = true
	st.ring[st.next] = t
	st.next++
	if st.next == len(st.ring) {
		st.next, st.full = 0, true
	}

	// Flight recorder: pin anomalous roots.
	reason := ""
	switch {
	case s.ErrClass == ErrClassVerify:
		reason = "verify_failed"
	case s.Degraded:
		reason = "degraded"
	case func() bool { ns := st.slowNs.Load(); return ns > 0 && int64(s.Dur) >= ns }():
		reason = "slow"
	}
	if reason == "" {
		return
	}
	st.pin(s.Trace, t, reason)
}

// pin adds t to the flight recorder under the store lock, evicting the
// oldest pin at capacity. Re-pinning an already-pinned trace only
// refreshes its reason.
func (st *traceStore) pin(id TraceID, t *TraceTree, reason string) {
	t.PinReason = reason
	if _, ok := st.pinned[id]; !ok {
		if len(st.pins) >= DefaultFlightRecorderCapacity {
			old := st.pins[0]
			st.pins = st.pins[1:]
			delete(st.pinned, old)
		}
		st.pinned[id] = t
		st.pins = append(st.pins, id)
	}
}

// TraceTree returns a copy of the tree for id, searching the flight
// recorder, the completed ring, and the active tier (partial trees are
// served as-is, marked Complete=false). A nil registry returns false.
func (r *Registry) TraceTree(id TraceID) (TraceTree, bool) {
	if r == nil {
		return TraceTree{}, false
	}
	st := &r.store
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.pinned[id]
	if t == nil {
		for i := range st.ring {
			if st.ring[i] != nil && st.ring[i].Trace == id {
				t = st.ring[i]
				break
			}
		}
	}
	if t == nil {
		t = st.active[id]
	}
	if t == nil {
		return TraceTree{}, false
	}
	cp := *t
	cp.Spans = append([]TraceSpan(nil), t.Spans...)
	return cp, true
}

// TraceSummary is one line of the /debug/traces and /debug/slow
// listings: a tree's root span and its outcome.
type TraceSummary struct {
	Trace     string    `json:"trace"`
	Op        string    `json:"op"`
	Start     time.Time `json:"start"`
	DurNs     int64     `json:"dur_ns"`
	Spans     int       `json:"spans"`
	PinReason string    `json:"pin_reason,omitempty"`
	Verified  bool      `json:"verified"`
	Degraded  bool      `json:"degraded,omitempty"`
	Err       string    `json:"err,omitempty"`
	ErrClass  string    `json:"err_class,omitempty"`
}

func summarize(t *TraceTree) TraceSummary {
	sum := TraceSummary{
		Trace:     t.Trace.String(),
		Spans:     len(t.Spans),
		PinReason: t.PinReason,
	}
	root, ok := t.root()
	if !ok && len(t.Spans) > 0 {
		// Rootless (server-side partial) tree: summarize from the
		// earliest span whose parent lives on the far side — the
		// server_<op> top level — so /debug/slow names the operation,
		// not whichever child happened to complete first.
		ids := make(map[SpanID]bool, len(t.Spans))
		for i := range t.Spans {
			ids[t.Spans[i].ID] = true
		}
		root = t.Spans[0]
		for _, s := range t.Spans[1:] {
			if top := !ids[s.Parent]; top != !ids[root.Parent] {
				if top {
					root = s
				}
			} else if s.Start.Before(root.Start) {
				root = s
			}
		}
	}
	sum.Op = root.Op
	sum.Start = root.Start
	sum.DurNs = int64(root.Dur)
	sum.Verified = root.Verified
	sum.Degraded = root.Degraded
	sum.Err = root.Err
	sum.ErrClass = root.ErrClass
	return sum
}

// SlowTraces lists the flight recorder's pinned traces, newest first.
// A nil registry returns nil.
func (r *Registry) SlowTraces() []TraceSummary {
	if r == nil {
		return nil
	}
	st := &r.store
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]TraceSummary, 0, len(st.pins))
	for i := len(st.pins) - 1; i >= 0; i-- {
		if t := st.pinned[st.pins[i]]; t != nil {
			out = append(out, summarize(t))
		}
	}
	return out
}

// RecentTraces lists up to n completed traces from the rolling ring,
// newest first. A nil registry returns nil.
func (r *Registry) RecentTraces(n int) []TraceSummary {
	if r == nil || n <= 0 {
		return nil
	}
	st := &r.store
	st.mu.Lock()
	defer st.mu.Unlock()
	size := st.next
	if st.full {
		size = len(st.ring)
	}
	if n > size {
		n = size
	}
	out := make([]TraceSummary, 0, n)
	for i := 1; i <= n; i++ {
		t := st.ring[(st.next-i+len(st.ring))%len(st.ring)]
		if t != nil {
			out = append(out, summarize(t))
		}
	}
	return out
}

// TraceNode is one span with its children — the JSON shape served by
// /debug/trace/{id}.
type TraceNode struct {
	TraceSpan
	Children []*TraceNode `json:"children,omitempty"`
}

// Tree renders the trace as a forest: spans whose parent is absent from
// the tree (the root, and any orphans from dropped or in-flight spans)
// become top-level nodes. Children sort by start time.
func (t *TraceTree) Tree() []*TraceNode {
	nodes := make(map[SpanID]*TraceNode, len(t.Spans))
	for i := range t.Spans {
		nodes[t.Spans[i].ID] = &TraceNode{TraceSpan: t.Spans[i]}
	}
	var roots []*TraceNode
	for i := range t.Spans {
		n := nodes[t.Spans[i].ID]
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*TraceNode)
	sortNodes = func(ns []*TraceNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}
