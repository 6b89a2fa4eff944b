package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the hierarchical trace model, the package's only span
// record: every facade operation (query, batch, create_table,
// reencrypt, reshard) owns a root span identified by a TraceID, and
// each subsystem it crosses — the core engine's overlapped phases, the
// cluster's per-shard sub-ops and replica attempts, the remote server's
// decode/compute halves — hangs a child span (or a typed event) off it.
// Completed spans flow into the registry's trace store (store.go), which
// assembles them into trees retrievable by ID and pins anomalous ones in
// the flight recorder.
//
// Sampling is always-on and cheap by construction: starting a span is
// one atomic counter increment plus a splitmix64 mix (no crypto/rand on
// the query path), recording events appends to a slice under a
// per-span mutex, and finishing a span takes one cold-path store lock.
// With a nil registry every entry point returns nil and every method on
// a nil *ActiveSpan is a no-op, preserving the package's "disabled
// telemetry costs one nil check" contract.

// TraceID identifies one distributed trace: a facade query (or batch,
// provision, reshard) and everything done on its behalf across shards,
// replicas, and wire hops.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits — the form used in
// /debug/trace/{id} URLs and histogram exemplars.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalJSON renders IDs as hex strings, matching the /debug/trace/{id}
// URL form (raw uint64s would lose precision in JavaScript anyway).
func (t TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// MarshalJSON renders span IDs as hex strings.
func (s SpanID) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// idCounter seeds span/trace ID generation. It is seeded once from
// crypto/rand so concurrent processes don't collide, then advanced with
// one atomic add per ID — the hot path never touches the OS entropy
// pool.
var idCounter = func() *atomic.Uint64 {
	var c atomic.Uint64
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		c.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		c.Store(uint64(time.Now().UnixNano()))
	}
	return &c
}()

// nextID mixes the counter through splitmix64 so IDs are well spread
// (and never zero — zero means "no trace" on the wire).
func nextID() uint64 {
	for {
		z := idCounter.Add(0x9e3779b97f4a7c15)
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// Typed event kinds attached to spans by the cluster and transport
// layers. Dashboards and tests match on these exact strings.
const (
	// EventReplicaFailover: a replica group abandoned its preferred
	// replica mid-operation and the attempt succeeded (or continued) on
	// another replica.
	EventReplicaFailover = "replica_failover"
	// EventMirrorFill: the TEE mirror recomputed a shard's contribution
	// because every replica of that shard failed (result goes Degraded).
	EventMirrorFill = "mirror_fill"
	// EventStaleGatherReissue: a scatter-gather observed an epoch flip
	// (live reshard) and re-issued sub-queries against the new topology.
	EventStaleGatherReissue = "stale_gather_reissue"
	// EventBreakerOpen: the transport's circuit breaker rejected or
	// tripped during the operation.
	EventBreakerOpen = "breaker_open"
)

// Error classes: the typed grouping label recorded alongside the
// flattened error string, so exporters and counters can aggregate
// failures without string-matching (see TraceSpan.ErrClass).
const (
	// ErrClassVerify: the cryptographic MAC check rejected the NDP's
	// answer — the paper's integrity failure, never maskable.
	ErrClassVerify = "verify"
	// ErrClassTransport: the NDP was unreachable or the wire failed.
	ErrClassTransport = "transport"
	// ErrClassCanceled: the caller's context ended the operation.
	ErrClassCanceled = "canceled"
	// ErrClassInvalid: the request itself was malformed (index range,
	// geometry, missing tags) — a caller bug, not a system fault.
	ErrClassInvalid = "invalid"
)

// PhaseNames are a query's architectural phases (DESIGN.md §7), in the
// order of the facade's Timing fields: the OTP engines regenerating data
// pads, the NDP's ciphertext round trip, the tag-pad regeneration, the
// decrypt + MAC-compare join, and the TEE-mirror recompute. Each names a
// child span of the query's root and a secndp_phase_<name>_seconds
// histogram.
var PhaseNames = [...]string{"pad", "ndp", "tag", "verify", "fallback"}

// SpanEvent is one typed, timestamped annotation on a span.
type SpanEvent struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// TraceSpan is one completed span: the unit the trace store assembles
// into trees. Parent is zero for a trace's root span.
type TraceSpan struct {
	Trace    TraceID       `json:"-"`
	ID       SpanID        `json:"span"`
	Parent   SpanID        `json:"parent,omitempty"`
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur_ns"`
	Events   []SpanEvent   `json:"events,omitempty"`
	Verified bool          `json:"verified,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Err      string        `json:"err,omitempty"`
	ErrClass string        `json:"err_class,omitempty"`
	// Remote marks a span recorded by the far side of a wire hop (the
	// NDP server), stitched into the tree by the propagated context.
	Remote bool `json:"remote,omitempty"`
}

// ActiveSpan is a live span handle. All methods are safe on a nil
// receiver (no-ops), safe for concurrent use, and cheap: nothing here
// touches the registry until End.
type ActiveSpan struct {
	reg    *Registry
	trace  TraceID
	id     SpanID
	parent SpanID
	op     string
	start  time.Time
	root   bool
	remote bool

	mu       sync.Mutex
	events   []SpanEvent
	verified bool
	degraded bool
	err      string
	errClass string
	ended    bool
}

// spanKeyType keys the active span in a context.
type spanKeyType struct{}

var spanKey spanKeyType

// ContextWithSpan returns ctx carrying s. A nil s returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *ActiveSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *ActiveSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*ActiveSpan)
	return s
}

// StartSpan starts a span under ctx's current span if one exists, else a
// new root span, and returns ctx carrying the new span. On a nil
// registry with no parent in ctx it returns (ctx, nil) — tracing off.
func (r *Registry) StartSpan(ctx context.Context, op string) (context.Context, *ActiveSpan) {
	if parent := SpanFromContext(ctx); parent != nil {
		return parent.StartChild(ctx, op)
	}
	if r == nil {
		return ctx, nil
	}
	s := &ActiveSpan{
		reg:   r,
		trace: TraceID(nextID()),
		id:    SpanID(nextID()),
		op:    op,
		start: time.Now(),
		root:  true,
	}
	return ContextWithSpan(ctx, s), s
}

// StartChild starts a child span of s and returns ctx carrying it. On a
// nil receiver it returns (ctx, nil).
func (s *ActiveSpan) StartChild(ctx context.Context, op string) (context.Context, *ActiveSpan) {
	if s == nil {
		return ctx, nil
	}
	c := &ActiveSpan{
		reg:    s.reg,
		trace:  s.trace,
		id:     SpanID(nextID()),
		parent: s.id,
		op:     op,
		start:  time.Now(),
	}
	return ContextWithSpan(ctx, c), c
}

// Child starts a child span of s without threading a context — for
// straight-line code that begins and ends the child in one scope. On a
// nil receiver it returns nil.
func (s *ActiveSpan) Child(op string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return &ActiveSpan{
		reg:    s.reg,
		trace:  s.trace,
		id:     SpanID(nextID()),
		parent: s.id,
		op:     op,
		start:  time.Now(),
		remote: s.remote,
	}
}

// StartRemoteSpan starts a server-side span for a trace context that
// arrived over the wire: trace and parent were minted by the far-side
// client. The span is never a root (the client owns the trace), so the
// tree it lands in stays partial until queried. Nil registry → nil.
func (r *Registry) StartRemoteSpan(trace TraceID, parent SpanID, op string) *ActiveSpan {
	if r == nil || trace == 0 {
		return nil
	}
	return &ActiveSpan{
		reg:    r,
		trace:  trace,
		id:     SpanID(nextID()),
		parent: parent,
		op:     op,
		start:  time.Now(),
		remote: true,
	}
}

// Trace returns the span's trace ID (zero on nil).
func (s *ActiveSpan) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span's ID (zero on nil).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Event appends a typed event to the span. No-op on nil.
func (s *ActiveSpan) Event(kind, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{Time: time.Now(), Kind: kind, Detail: detail})
	s.mu.Unlock()
}

// Eventf appends a typed event with a formatted detail. No-op on nil —
// and, critically, the receiver check runs before the format, so
// disabled tracing never pays for fmt.
func (s *ActiveSpan) Eventf(kind, format string, args ...any) {
	if s == nil {
		return
	}
	s.Event(kind, fmt.Sprintf(format, args...))
}

// SetStatus records the verified/degraded outcome flags. No-op on nil.
func (s *ActiveSpan) SetStatus(verified, degraded bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.verified, s.degraded = verified, degraded
	s.mu.Unlock()
}

// Fail records the span's error string and class. No-op on nil or nil
// err.
func (s *ActiveSpan) Fail(err error, class string) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err, s.errClass = err.Error(), class
	s.mu.Unlock()
}

// End completes the span and hands it to the registry's trace store.
// Ending twice is a no-op; ending a nil span is a no-op.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := TraceSpan{
		Trace:    s.trace,
		ID:       s.id,
		Parent:   s.parent,
		Op:       s.op,
		Start:    s.start,
		Dur:      dur,
		Events:   s.events,
		Verified: s.verified,
		Degraded: s.degraded,
		Err:      s.err,
		ErrClass: s.errClass,
		Remote:   s.remote,
	}
	s.mu.Unlock()
	s.reg.recordTraceSpan(rec, s.root)
}

// EndErr is End with a final error attached: err (classified by class)
// is recorded first unless the span already failed. Nil-safe.
func (s *ActiveSpan) EndErr(err error, class string) {
	if s == nil {
		return
	}
	if err != nil {
		s.mu.Lock()
		if s.err == "" {
			s.err, s.errClass = err.Error(), class
		}
		s.mu.Unlock()
	}
	s.End()
}
