// Package telemetry is the repository's unified observability layer: a
// dependency-free metrics registry (lock-free counters, gauges, and
// fixed-bucket latency histograms), hierarchical trace trees (trace.go,
// store.go), and exporters for the Prometheus text format, expvar, and a
// net/http serving surface with pprof.
//
// The design goal is an allocation-free, lock-free hot path: recording a
// counter increment, a gauge set, or a histogram observation is a handful
// of atomic operations and never takes a lock. Locks exist only on the
// cold paths — metric registration and snapshot/export.
//
// Snapshot semantics: every exported value is loaded with one atomic read,
// so a snapshot never observes a torn value, but distinct metrics (and
// distinct stripes of one counter) are read at slightly different
// instants. Under concurrent recording two related counters — queries
// and verified queries, say — may be mutually skewed by the handful of
// operations in flight during the read. Each value is exact for some
// moment in its own history and monotone counters never run backwards;
// ratios derived from one snapshot are accurate to within the in-flight
// window. Registry.Snapshot is the single consistent read path every
// exporter (WriteProm, expvar, /metrics) goes through.
package telemetry

import (
	"sort"
	"sync"
)

// Registry owns a flat namespace of metrics plus the trace store.
// Metric constructors are idempotent: asking for an existing name returns
// the existing metric, so independent subsystems sharing one registry
// converge on shared series. A nil *Registry is valid everywhere and
// hands out nil metrics whose record methods are no-ops — the "telemetry
// disabled" configuration costs one predictable nil check per record.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]gaugeFn
	hists    map[string]*Histogram
	store    traceStore
	debugMu  sync.Mutex
	debug    map[string]func() any
}

// gaugeFn is a callback-backed gauge: the function is evaluated at
// snapshot/export time instead of being pushed at record time.
type gaugeFn struct {
	help string
	fn   func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]gaugeFn),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := newCounter(name, help)
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a callback-backed gauge: fn is evaluated on every
// Snapshot (and therefore on every export path — WriteProm, expvar,
// /metrics), never on a hot path. It suits values that already live
// elsewhere as cheap atomic state — a transport's cumulative attempt
// count, a breaker's state — where pushing every update into a Gauge
// would duplicate the bookkeeping. fn must be safe for concurrent use
// and must not call back into the registry. Unlike the other
// constructors, re-registering a name replaces its callback: a callback
// gauge follows a live source, and when that source is swapped out (a
// resharded cluster retiring one transport for another) the series must
// re-bind to the replacement rather than export the retired one
// forever. A nil registry or nil fn is a no-op.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = gaugeFn{help: help, fn: fn}
}

// DropGaugeFunc removes a callback gauge, so a retired source stops
// being exported. An unknown name or a nil registry is a no-op.
func (r *Registry) DropGaugeFunc(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.gaugeFns, name)
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (nanoseconds, ascending; nil selects
// DefaultDurationBucketsNs). The bounds of an existing histogram win. A
// nil registry returns nil.
func (r *Registry) Histogram(name, help string, boundsNs []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(name, help, boundsNs)
	r.hists[name] = h
	return h
}

// RegisterDebug registers a live debug source: fn is evaluated on each
// GET of /debug/{name} and its result rendered as JSON. Like GaugeFunc,
// re-registering a name replaces its callback — a debug source follows
// a live subsystem (e.g. the current cluster topology), and the
// freshest registration is the one that matters. fn must be safe for
// concurrent use. A nil registry or nil fn is a no-op.
func (r *Registry) RegisterDebug(name string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	r.debugMu.Lock()
	defer r.debugMu.Unlock()
	if r.debug == nil {
		r.debug = make(map[string]func() any)
	}
	r.debug[name] = fn
}

// debugSource looks up a registered debug callback by name.
func (r *Registry) debugSource(name string) func() any {
	if r == nil {
		return nil
	}
	r.debugMu.Lock()
	defer r.debugMu.Unlock()
	return r.debug[name]
}

// CounterSnap is one counter's exported state.
type CounterSnap struct {
	Name  string `json:"name"`
	Help  string `json:"-"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge's exported state.
type GaugeSnap struct {
	Name  string `json:"name"`
	Help  string `json:"-"`
	Value int64  `json:"value"`
}

// HistSnap is one histogram's exported state: per-bucket counts aligned
// with BoundsNs (Counts has one extra trailing element for +Inf), plus the
// running sum and total count.
type HistSnap struct {
	Name     string   `json:"name"`
	Help     string   `json:"-"`
	BoundsNs []uint64 `json:"bounds_ns"`
	Counts   []uint64 `json:"counts"`
	SumNs    uint64   `json:"sum_ns"`
	Count    uint64   `json:"count"`
	// Exemplars, when present, is aligned with Counts: the hex trace ID
	// last observed into each bucket ("" = none). See Histogram.ObserveTrace.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time export of every registered metric, sorted
// by name (see the package comment for its consistency guarantees).
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot reads every metric once, atomically per value. A nil registry
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	type namedFn struct {
		name string
		gaugeFn
	}
	fns := make([]namedFn, 0, len(r.gaugeFns))
	for name, gf := range r.gaugeFns {
		fns = append(fns, namedFn{name: name, gaugeFn: gf})
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Help: c.help, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Help: g.help, Value: g.Value()})
	}
	// Callback gauges evaluate outside the registry lock (the callbacks
	// read foreign atomic state and must not re-enter the registry).
	for _, gf := range fns {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: gf.name, Help: gf.help, Value: gf.fn()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.snap())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
