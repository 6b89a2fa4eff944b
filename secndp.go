package secndp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"secndp/internal/cluster"
	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/remote"
	"secndp/internal/telemetry"
)

// This file is the public facade over internal/core, internal/cluster,
// internal/memory, and internal/remote: one Engine per secret key, one
// Table per encrypted region, and a single Query entry point that routes
// through the concurrent query engine (internal/core/parallel.go) whether
// the NDP is an in-process memory space or a cluster of remote servers.

// Sentinel errors, re-exported so callers never import internal packages.
// Branch with errors.Is; returned errors wrap these with detail.
var (
	// ErrVerification: the result failed the encrypted-MAC check — NDP
	// misbehavior, memory tampering, a replay, or ring overflow.
	ErrVerification = core.ErrVerification
	// ErrNoTags: a verified operation was requested on a table encrypted
	// without verification tags.
	ErrNoTags = core.ErrNoTags
	// ErrBadGeometry: a TableSpec describes an invalid or misaligned table.
	ErrBadGeometry = core.ErrBadGeometry
	// ErrIndexRange: a query names a row or column outside the table.
	ErrIndexRange = core.ErrIndexRange
	// ErrRetriesExhausted: the fault-tolerant transport gave up after its
	// configured attempts (each failing at the transport level).
	ErrRetriesExhausted = remote.ErrRetriesExhausted
	// ErrCircuitOpen: the transport circuit breaker is rejecting calls
	// until a probe succeeds against the NDP server.
	ErrCircuitOpen = remote.ErrCircuitOpen
)

// KeySize is the secret key size in bytes (AES-128).
const KeySize = otp.KeySize

// Memory is an untrusted memory space: everything stored in one is
// visible to and modifiable by the adversary.
type Memory = memory.Space

// NewMemory returns an empty untrusted memory.
func NewMemory() *Memory { return memory.NewSpace() }

// Server is an untrusted NDP network service owning a Memory. It never
// holds key material.
type Server = remote.Server

// NewServer wraps an untrusted memory space in an NDP server; start it
// with Listen.
func NewServer(mem *Memory) *Server { return remote.NewServer(mem) }

// RemoteNDP is a single client connection to a remote NDP server. Its
// calls honor context deadlines (see Engine.CreateTable and Table.Query),
// but one transport failure poisons the connection for good — production
// callers want ReliableNDP.
type RemoteNDP = remote.Client

// DialNDP connects to a remote NDP server over one connection.
func DialNDP(ctx context.Context, addr string) (*RemoteNDP, error) {
	return remote.DialContext(ctx, addr)
}

// NDPTransport is any client-side connection to a remote NDP server: a
// single RemoteNDP connection or a fault-tolerant ReliableNDP.
type NDPTransport = remote.Transport

// ReliableNDP is a fault-tolerant NDP connection: a reconnecting
// connection pool with health-checked redials, retry with exponential
// backoff and jitter for the (idempotent) wire operations, and a circuit
// breaker that stops hammering a dead server and probes it back to life.
// Failures surface as ErrRetriesExhausted / ErrCircuitOpen; its Stats
// method reports attempts, retries, redials, and breaker state.
type ReliableNDP = remote.ReliableClient

// TransportConfig bundles the fault-tolerance knobs of a ReliableNDP; the
// zero value selects the documented defaults (4 attempts, 5ms..500ms
// exponential backoff with 50% jitter, breaker opening after 5 consecutive
// failures with a 250ms probe interval, 2 warm pooled connections).
type TransportConfig = remote.ReliableConfig

// RetryPolicy tunes the transport retry loop (see TransportConfig).
type RetryPolicy = remote.RetryPolicy

// BreakerConfig tunes the transport circuit breaker (see TransportConfig).
type BreakerConfig = remote.BreakerConfig

// PoolConfig tunes the reconnecting connection pool (see TransportConfig).
type PoolConfig = remote.PoolConfig

// DialReliableNDP connects to a remote NDP server through the
// fault-tolerant transport, verifying reachability with one
// health-checked connection.
func DialReliableNDP(ctx context.Context, addr string, cfg TransportConfig) (*ReliableNDP, error) {
	return remote.DialReliable(ctx, addr, cfg)
}

// verifyMode resolves the engine-level verification policy.
type verifyMode int

const (
	verifyAuto verifyMode = iota // verify whenever the table carries tags
	verifyOn                     // require tags; error on Enc-only tables
	verifyOff                    // never verify
)

type config struct {
	workers         int
	verify          verifyMode
	fallbackVerifyN int                 // 0 = TEE fallback disabled
	telemetry       *telemetry.Registry // nil = telemetry disabled
	transport       *TransportConfig    // nil = zero-value transport defaults
}

// Option configures an Engine.
type Option func(*config)

// WithParallelism fixes the worker count of the OTP-side pad generator
// (the software analogue of the paper's multiple OTP engines, §V-C2). It
// applies to batches and to queries whose pad walk reaches 128 KiB of
// rows; a shorter query walks its pads on the caller's goroutine whatever
// n is. Table encryption uses the same count:
// CreateTable (on every backend) and Reencrypt split the table into up to
// n row ranges encrypted side by side, none smaller than 64 KiB. n <= 0 —
// the default — selects GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithFallback enables TEE-side graceful degradation for remote and
// cluster tables: CreateTable keeps the encrypted staging image as a
// trusted in-TEE mirror. When a shard's transport fails (circuit open,
// retries exhausted, connection loss on every replica) its partial sums
// are recomputed from the mirror and the MAC check runs over the filled
// answer; when verification rejects results verifyFailures consecutive
// times (<= 0 selects 3) the whole query is recomputed locally by
// decrypting the mirror, exactly the paper's trusted-processor baseline
// (Figure 4(b)), with no MAC check. Both carry Result.Degraded = true;
// they are computed inside the TEE, so they are at least as trustworthy
// as a verified NDP result. The cost is one in-TEE copy of each remote or
// cluster table's ciphertext. LocalBackend tables are unaffected: their memory is
// the adversary's, so it can never serve as a trusted mirror.
func WithFallback(verifyFailures int) Option {
	return func(c *config) {
		if verifyFailures <= 0 {
			verifyFailures = 3
		}
		c.fallbackVerifyN = verifyFailures
	}
}

// WithTransport sets the engine-level default TransportConfig used
// whenever the engine dials an NDP server itself — today that is every
// ClusterBackend shard named by address — so per-shard fault-tolerance
// knobs need not be repeated. It does not affect transports the caller
// dialed (RemoteBackend, or a ShardSpec carrying a Transport): those
// were configured at dial time. See doc.go for the precedence rules.
func WithTransport(cfg TransportConfig) Option {
	return func(c *config) { c.transport = &cfg }
}

// WithVerification pins the verification policy. Without this option the
// engine verifies exactly when the table carries tags; with on=true a
// query against a tag-less table fails with ErrNoTags; with on=false
// verification is never run (Algorithm 4 without Algorithm 5).
func WithVerification(on bool) Option {
	return func(c *config) {
		if on {
			c.verify = verifyOn
		} else {
			c.verify = verifyOff
		}
	}
}

// Engine is the trusted-processor side of SecNDP: it owns the secret key
// and the version discipline, and hands out Table handles. One Engine
// serves any number of tables (bounded by the paper's 64 live versions,
// §V-A); it is safe for concurrent use.
type Engine struct {
	scheme   *core.Scheme
	versions *core.VersionManager
	cfg      config
	tableSeq atomic.Uint64
	// tel holds the pre-resolved telemetry metric handles; nil when the
	// engine runs without WithTelemetry (every record site is then one
	// nil check).
	tel *engineTelemetry

	// shared holds the transports the engine dialed for shard addresses,
	// one per address, reference-counted by the tables using them;
	// gauges maps each bound per-(shard, replica) transport series prefix
	// to the transport it reports. Both are guarded by sharedMu.
	sharedMu sync.Mutex
	shared   map[string]*sharedTransport
	gauges   map[string]*remote.ReliableClient
}

// New builds an Engine from a 128-bit secret key.
func New(key []byte, opts ...Option) (*Engine, error) {
	scheme, err := core.NewScheme(key)
	if err != nil {
		return nil, err
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	scheme.SetWorkers(cfg.workers)
	tel := newEngineTelemetry(cfg.telemetry)
	tel.instrumentGenerator(scheme)
	return &Engine{
		scheme:   scheme,
		versions: core.NewVersionManager(core.DefaultVersionLimit, otp.MaxVersion),
		cfg:      cfg,
		tel:      tel,
	}, nil
}

// TagMode selects where verification tags live (paper §V-D). The zero
// value is TagsSeparate, so tables verify by default.
type TagMode int

const (
	// TagsSeparate stores all tags in a dedicated region (Ver-sep).
	TagsSeparate TagMode = iota
	// TagsNone encrypts without tags (Enc-only; queries cannot verify).
	TagsNone
	// TagsColocated places each row's tag right after its data (Ver-coloc).
	TagsColocated
	// TagsECC stores tags in the ECC side band (Ver-ECC; infeasible for
	// short quantized rows).
	TagsECC
)

// DefaultBase is the data base address used when a TableSpec leaves Base
// zero.
const DefaultBase = 0x1000

// TableSpec describes the shape and placement of one encrypted table.
// Rows×Cols elements of ElemBits each; a row must span whole 16-byte
// cipher blocks (Cols × ElemBits/8 ≡ 0 mod 16).
type TableSpec struct {
	// Name identifies the table to the version manager; one version per
	// name, never reused. Empty auto-generates a unique name.
	Name string
	// Rows and Cols are the matrix dimensions (n and m).
	Rows, Cols int
	// ElemBits is the element width we ∈ {8,16,32,64}; 0 means 32.
	ElemBits uint
	// Tags selects the verification-tag placement (default Ver-sep).
	Tags TagMode
	// Base is the data region's physical base address (0 → DefaultBase).
	Base uint64
	// TagBase is the tag region's base for TagsSeparate; 0 places tags
	// directly after the data region.
	TagBase uint64
	// ChecksumSubstrings > 1 selects the Algorithm 8 multi-substring
	// checksum, lowering the forgery bound.
	ChecksumSubstrings int
}

func (spec TableSpec) geometry() (core.Geometry, error) {
	we := spec.ElemBits
	if we == 0 {
		we = 32
	}
	var placement memory.TagPlacement
	switch spec.Tags {
	case TagsSeparate:
		placement = memory.TagSep
	case TagsNone:
		placement = memory.TagNone
	case TagsColocated:
		placement = memory.TagColoc
	case TagsECC:
		placement = memory.TagECC
	default:
		return core.Geometry{}, fmt.Errorf("%w: unknown tag mode %d", ErrBadGeometry, spec.Tags)
	}
	base := spec.Base
	if base == 0 {
		base = DefaultBase
	}
	layout := memory.Layout{
		Placement: placement,
		Base:      base,
		TagBase:   spec.TagBase,
		NumRows:   spec.Rows,
		RowBytes:  spec.Cols * int(we) / 8,
	}
	if placement == memory.TagSep && layout.TagBase == 0 {
		layout.TagBase = layout.DataEnd()
	}
	geo := core.Geometry{
		Layout: layout,
		Params: core.Params{We: we, M: spec.Cols, ChecksumSubstrings: spec.ChecksumSubstrings},
	}
	return geo, geo.Validate()
}

// tableState bundles everything a query derives results from that
// re-encryption rotates as a unit: the core table handle (key+version
// binding), the NDP serving it, and the serving epoch. Queries load one
// state pointer and work against a consistent snapshot; Reencrypt swaps
// the pointer atomically, so in-flight queries finish under the state they
// started with and new queries see the rotated table.
type tableState struct {
	tab *core.Table
	ndp core.NDP
	// epoch counts state rotations (starts at 1, bumped by Reencrypt).
	// Table.Epoch folds in cluster reshard flips on top.
	epoch uint64
}

// Table is a handle to one encrypted table bound to the NDP that serves
// it. It carries no plaintext and is safe for concurrent queries.
type Table struct {
	eng    *Engine
	state  atomic.Pointer[tableState]
	region string

	// reencMu serializes Reencrypt; queries stay lock-free.
	reencMu sync.Mutex

	// mirror, when non-nil, is the TEE-held ciphertext image enabling
	// local fallback recomputation (WithFallback + a cluster backend,
	// RemoteBackend's one shard included).
	mirror *Memory
	// cnd is set for cluster-backed tables: the same object as ndp,
	// retyped so the facade can plumb the mirror-fill flag and run
	// shard fault localization.
	cnd *cluster.NDP
	// staging is a cluster table's TEE-held ciphertext image: the
	// reshard source and, with WithFallback, the mirror (and the
	// cluster's fill source); a remote table keeps it only as the mirror.
	// Reencrypt rewrites it with the NDP's memory.
	staging *Memory
	// owned holds the table's references to transports the engine
	// dialed for it; Close drops them, and the last reference to a
	// transport closes it. Caller-supplied transports are never here.
	owned []io.Closer
	// verifyFails counts consecutive verification rejections; crossing
	// the engine's threshold routes queries to the fallback path.
	verifyFails atomic.Uint32
	// degraded counts queries served from the fallback path.
	degraded atomic.Uint64
}

func (e *Engine) newTable(tab *core.Table, ndp core.NDP, region string, mirror *Memory) *Table {
	t := &Table{
		eng:    e,
		region: region,
		mirror: mirror,
	}
	t.state.Store(&tableState{tab: tab, ndp: ndp, epoch: 1})
	return t
}

func (e *Engine) allocRegion(spec TableSpec) (string, uint64, error) {
	region := spec.Name
	if region == "" {
		region = fmt.Sprintf("table-%d", e.tableSeq.Add(1))
	}
	v, err := e.versions.Allocate(region)
	return region, v, err
}

// Close releases the table's version-manager slot (the version value
// itself is never reissued) and its references to the shard transports
// the engine dialed for it: a transport closes with the last table using
// it, so the engine's other tables on the same shard addresses keep
// serving. Transports supplied by the caller stay open. The handle must
// not be used afterwards.
func (t *Table) Close() {
	t.eng.versions.Release(t.region)
	for _, c := range t.owned {
		c.Close()
	}
	t.owned = nil
}

// Geometry returns the table's public geometry.
func (t *Table) Geometry() core.Geometry { return t.state.Load().tab.Geometry() }

// Version returns the version the table is currently encrypted under
// (bumped by Reencrypt).
func (t *Table) Version() uint64 { return t.state.Load().tab.Version() }

// SharesExchanges reports whether the table's batches can share NDP
// exchanges with other tables' in one QueryBatches call: true for every
// off-process table — a cluster table, RemoteBackend's one-shard table
// among them — whose sub-batches ride its shards' transports (shared by
// every table of the engine naming the same addresses or transport);
// false for a LocalBackend table, whose batch runs on its own.
func (t *Table) SharesExchanges() bool { return t.cnd != nil }

// Epoch returns the table's serving epoch: an opaque generation counter
// (starting at 1) that changes whenever results derived from the table
// must be re-derived — a Reencrypt (version rotation, possibly with new
// contents) or a cluster Reshard (topology flip). Serving layers key
// derived caches by it: a cached result tagged with an older epoch must
// be discarded, never served. Monotone non-decreasing.
func (t *Table) Epoch() uint64 {
	e := t.state.Load().epoch
	if t.cnd != nil {
		// Cluster topology epochs start at 1; fold flips in additively so
		// both rotation sources bump the one counter queries key on.
		e += t.cnd.Epoch() - 1
	}
	return e
}

// Reencrypt rotates the table to a freshly allocated version — and, with
// newRows non-nil, to new contents — in place: the untrusted memory is
// rewritten with ciphertext and tags drawn from the new version's pads,
// and the serving epoch bumps so result caches keyed on Epoch invalidate.
// nil newRows re-encrypts the existing contents, first decrypting and (for
// tagged tables) verifying every row, so tampering cannot be laundered
// into a freshly authenticated table; non-nil newRows must match the
// table's Rows×Cols shape and replaces the contents.
//
// Only tables whose NDP serves from an in-process memory support
// in-place rotation today — local-backend tables, and remote-backend
// tables over an in-process transport such as the test suite's
// faultproxy.Gate; tables over the wire return an error (online cluster
// re-encryption is a ROADMAP item). A remote-backend table's TEE staging
// image — its mirror under WithFallback — is rewritten to the same bytes,
// so a later fallback decrypts the rotated ciphertext with the rotated
// pads. The rewrite happens in place before the new state is published,
// so queries racing the rewrite window may transiently fail verification
// (tagged tables reject mixed-version bytes; ErrVerification), and a
// fallback racing it may read mixed bytes — quiesce or retry around
// rotation. Queries never see a stale-pad decrypt that passes
// verification.
func (t *Table) Reencrypt(ctx context.Context, newRows [][]uint64) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	_, span := t.eng.tel.startSpan(ctx, "reencrypt")
	defer func() { span.EndErr(err, classifyErr(err)) }()
	t.reencMu.Lock()
	defer t.reencMu.Unlock()
	st := t.state.Load()
	mem := t.inProcessMemory(st)
	if mem == nil {
		return errors.New("secndp: Reencrypt requires a table served from memory in this process (online rotation over the wire is not yet supported)")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	newV, err := t.eng.versions.Bump(t.region)
	if err != nil {
		return err
	}
	// The same version and plaintext give the same bytes, so the staging
	// image stays the NDP memory's trusted twin. Re-encrypting existing
	// contents verifies the NDP's rows before anything is written.
	rewrite := func(m *Memory) (*core.Table, error) {
		if newRows == nil {
			return st.tab.Reencrypt(m, newV)
		}
		return t.eng.scheme.EncryptTable(m, st.tab.Geometry(), newV, newRows)
	}
	newTab, err := rewrite(mem)
	if err != nil {
		return err
	}
	if t.staging != nil {
		if _, err := rewrite(t.staging); err != nil {
			return err
		}
	}
	t.state.Store(&tableState{tab: newTab, ndp: st.ndp, epoch: st.epoch + 1})
	return nil
}

// inProcessMemory returns the untrusted memory Reencrypt rewrites in
// place — the memory st's NDP answers from when that NDP runs in this
// process: LocalBackend's, or the lone replica of a one-shard table over
// an in-process transport — or nil.
func (t *Table) inProcessMemory(st *tableState) *Memory {
	ndp := st.ndp
	if t.cnd != nil {
		if t.cnd.Map().NumShards() != 1 || t.cnd.Group(0).Size() != 1 {
			return nil
		}
		ndp = t.cnd.Group(0).Replica(0)
	}
	if m, ok := ndp.(inProcessNDP); ok {
		return m.Memory()
	}
	return nil
}

// inProcessNDP is an NDP answering from an untrusted memory in this
// process — LocalBackend's, or an in-process transport wrapping one.
type inProcessNDP interface{ Memory() *Memory }

// CacheStats returns (0, 0).
//
// Deprecated: there is no pad cache; pads are regenerated, never stored.
func (t *Table) CacheStats() (hits, misses uint64) { return 0, 0 }

// Request is one weighted-summation query: result[j] = Σ_k Weights[k] ·
// P[Idx[k]][j]. With Cols set, the query is element-indexed instead —
// the scalar Σ_k Weights[k] · P[Idx[k]][Cols[k]] — which the paper's
// tags cannot authenticate (they cover whole-row combinations), so such
// results are never verified.
type Request struct {
	Idx     []int
	Weights []uint64
	// Cols selects the element-indexed form; len(Cols) must equal
	// len(Idx). Leave nil for whole-row summation.
	Cols []int
	// Unverified opts this request out of verification (Algorithm 4
	// without Algorithm 5) even when the table carries tags.
	Unverified bool
}

// Result is a query's decrypted output.
type Result struct {
	// Values holds one element per table column — or a single element for
	// an element-indexed request.
	Values []uint64
	// Verified reports whether the encrypted-MAC check ran (and passed —
	// a failed check returns ErrVerification instead of a Result).
	Verified bool
	// Degraded reports that the NDP could not fully serve this query and
	// the trusted ciphertext mirror (WithFallback) filled in. A transport
	// failure — a shard whose every replica is down, out of retries or
	// behind an open circuit, a remote table's one shard included — has
	// that shard's partial sums recomputed from the mirror; the
	// aggregated MAC check still runs over the filled answer, so Verified
	// may still be true. Repeated verification failures have the whole
	// result recomputed inside the TEE instead: Verified = false, no MAC
	// check ran, but the computation was wholly trusted.
	Degraded bool
	// Epoch is the serving epoch (see Table.Epoch) of the table state —
	// and, on a cluster, the topology — that computed this result. A
	// serving layer keys what it derives from the result by it: a row
	// fetched across a Reencrypt carries the new epoch, not the one the
	// caller saw when it asked.
	Epoch uint64
	// Timing is the query's per-phase anatomy (always populated; no
	// telemetry registry required). The concurrent phases overlap, so they
	// do not sum to Timing.Total.
	Timing Timing
	// Trace is the query's trace ID in hex, when the engine runs with
	// WithTelemetry: feed it to the registry's /debug/trace/{id} endpoint
	// (or Registry.TraceTree) for the full hierarchical span tree —
	// per-phase children, per-shard sub-ops, replica failovers, server-side
	// decode/compute spans. Empty with telemetry disabled.
	Trace string
}

// Query runs one request through the concurrent engine: the NDP computes
// its ciphertext sums while the worker pool regenerates OTP shares and
// tag pads, and the joined result is decrypted and (by policy) verified.
// It subsumes the former Query / QueryVerified / QueryElem triplet.
func (t *Table) Query(ctx context.Context, req Request) (Result, error) {
	return t.query(ctx, req, t.eng.cfg.workers)
}

// clusterCtx derives the query context for cluster-backed tables: a
// fresh mirror-fill flag rides the context so the gather can report
// which shards (if any) were served from the TEE mirror. For other
// backends the context passes through and the nil flag reads as "no
// fills" everywhere.
func (t *Table) clusterCtx(ctx context.Context) (context.Context, *cluster.Flag) {
	if t.cnd == nil {
		return ctx, nil
	}
	return cluster.WithFlag(ctx)
}

// annotateShardFault names the offending shard(s) when a cluster query
// was rejected by verification: the aggregated check covers the whole
// gather, so the facade bisects over the shards to localize the fault.
// Best-effort — localization failures leave the original error as-is,
// which still matches errors.Is(err, ErrVerification).
func (t *Table) annotateShardFault(ctx context.Context, st *tableState, err error, req Request, opts core.QueryOptions) error {
	if t.cnd == nil || !errors.Is(err, ErrVerification) {
		return err
	}
	bad, lerr := t.cnd.LocateFault(ctx, st.tab, req.Idx, req.Weights, opts)
	if lerr != nil || len(bad) == 0 {
		return err
	}
	return fmt.Errorf("cluster shard(s) %v: %w", bad, err)
}

func (t *Table) query(ctx context.Context, req Request, workers int) (Result, error) {
	if req.Cols != nil {
		return t.queryElem(ctx, req)
	}
	// One state load per query: the whole operation — pads, NDP exchange,
	// verification — runs against a consistent table snapshot even if
	// Reencrypt swaps the state mid-flight.
	st := t.state.Load()
	verify, err := t.resolveVerify(st, req.Unverified)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	rctx, span := t.eng.tel.startSpan(ctx, "query")
	qctx, cflag := t.clusterCtx(rctx)
	var pt core.PhaseTimes
	var fbDur time.Duration
	opts := core.QueryOptions{Workers: workers, Verify: verify, Phases: &pt}
	values, err := st.tab.QueryCtx(qctx, st.ndp, req.Idx, req.Weights, opts)
	degraded := false
	switch {
	case err == nil:
		if verify {
			t.verifyFails.Store(0)
		}
		degraded = cflag.Any()
	case !t.shouldFallback(err):
		err = t.annotateShardFault(ctx, st, err, req, opts)
	default:
		fspan := span.Child("fallback")
		fb := time.Now()
		var ferr error
		values, ferr = st.tab.LocalWeightedSum(ctx, t.mirror, req.Idx, req.Weights)
		fbDur = time.Since(fb)
		if ferr != nil {
			err = fmt.Errorf("secndp: fallback failed: %w (ndp: %w)", ferr, err)
			fspan.EndErr(err, classifyErr(err))
			break
		}
		fspan.End()
		err, verify, degraded = nil, false, true
	}
	return t.finishQuery(span, values, verify, degraded, t.answerEpoch(st, cflag), timingFrom(pt, fbDur, time.Since(start)), err)
}

// finishQuery is a single query's one exit: it ends the root span with
// the outcome, records that outcome beside it, and builds the Result.
func (t *Table) finishQuery(span *telemetry.ActiveSpan, values []uint64, verified, degraded bool, epoch uint64, tm Timing, err error) (Result, error) {
	if err != nil {
		verified, degraded = false, false
	}
	if degraded {
		t.degraded.Add(1)
	}
	span.SetStatus(verified, degraded)
	span.EndErr(err, classifyErr(err))
	t.eng.tel.recordQuery(tm, verified, degraded, span.Trace(), err)
	if err != nil {
		return Result{}, err
	}
	return Result{Values: values, Verified: verified, Degraded: degraded, Epoch: epoch, Timing: tm, Trace: traceHex(span.Trace())}, nil
}

// traceHex renders a trace ID for Result.Trace: empty when tracing is
// off (zero ID), so callers can branch on the field directly.
func traceHex(trace telemetry.TraceID) string {
	if trace == 0 {
		return ""
	}
	return trace.String()
}

// shouldFallback classifies a failed NDP query: semantic rejections and
// the caller's own cancellation never degrade; verification failures
// degrade only once the configured consecutive run is reached (the NDP is
// then presumed compromised or corrupt); everything else — retries
// exhausted, circuit open, poisoned connections, transport panics — is a
// transport-class failure served from the mirror.
func (t *Table) shouldFallback(err error) bool {
	if t.mirror == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrVerification) {
		return int(t.verifyFails.Add(1)) >= t.eng.cfg.fallbackVerifyN
	}
	if errors.Is(err, ErrIndexRange) || errors.Is(err, ErrNoTags) || errors.Is(err, ErrBadGeometry) {
		return false
	}
	return true
}

// DegradedCount reports how many of the table's queries were served from
// the TEE fallback path rather than the NDP.
func (t *Table) DegradedCount() uint64 { return t.degraded.Load() }

// resolveVerify merges the engine policy, the table's tag placement, and
// the per-request opt-out.
func (t *Table) resolveVerify(st *tableState, unverified bool) (bool, error) {
	hasTags := st.tab.Geometry().Layout.Placement != memory.TagNone
	switch t.eng.cfg.verify {
	case verifyOff:
		return false, nil
	case verifyOn:
		if !hasTags {
			return false, fmt.Errorf("%w: engine requires verification", ErrNoTags)
		}
		return !unverified, nil
	default:
		return hasTags && !unverified, nil
	}
}

func (t *Table) queryElem(ctx context.Context, req Request) (Result, error) {
	if t.eng.cfg.verify == verifyOn {
		return Result{}, fmt.Errorf("%w: element-indexed queries cannot be verified (tags authenticate whole-row sums)", ErrNoTags)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	st := t.state.Load()
	start := time.Now()
	rctx, span := t.eng.tel.startSpan(ctx, "query_elem")
	// The wire has no element op: cluster backends — remote tables among
	// them — serve element sums by whole-row fetches with per-shard
	// replica failover, so a healthy cluster answers un-Degraded and a
	// dead replica costs a failover, not a mirror trip.
	qctx, cflag := t.clusterCtx(rctx)
	v, err := st.tab.QueryElemCtx(qctx, st.ndp, req.Idx, req.Cols, req.Weights)
	var fbDur time.Duration
	degraded := false
	switch {
	case err == nil:
		degraded = cflag.Any()
	case t.shouldFallback(err):
		fspan := span.Child("fallback")
		fb := time.Now()
		var ferr error
		v, ferr = st.tab.LocalWeightedSumElem(ctx, t.mirror, req.Idx, req.Cols, req.Weights)
		fbDur = time.Since(fb)
		if ferr != nil {
			err = fmt.Errorf("secndp: fallback failed: %w (ndp: %w)", ferr, err)
			fspan.EndErr(err, classifyErr(err))
			break
		}
		fspan.End()
		err, degraded = nil, true
	}
	return t.finishQuery(span, []uint64{v}, false, degraded, t.answerEpoch(st, cflag), timingFrom(core.PhaseTimes{}, fbDur, time.Since(start)), err)
}

// QueryBatch runs many requests as one coalesced batch: a single NDP
// exchange answers every request's ciphertext and tag sums, each distinct
// row's OTP pad is generated once and shared across requests, and every
// joined result gets its own MAC check, so per-request errors are unchanged.
// Requests that cannot coalesce (element-indexed, or mixed verification
// settings) run through the per-request worker pool instead. A batch the
// NDP fails as a whole fails each of its requests, which the TEE mirror
// (WithFallback) then serves one by one. It is QueryBatches' one-table
// case.
//
// The results align with the requests; the error aggregates every
// per-request failure (annotated with its index), so
// errors.Is(err, ErrVerification) detects a rejected result anywhere in
// the batch.
func (t *Table) QueryBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	b := [1]TableBatch{{Table: t, Reqs: reqs}}
	QueryBatches(ctx, b[:])
	return b[0].Results, b[0].Err
}

// TableBatch is one table's share of a QueryBatches call: its requests
// going in and, once the call returns, its results and error exactly as
// Table.QueryBatch returns them.
type TableBatch struct {
	Table   *Table
	Reqs    []Request
	Results []Result
	Err     error
}

// QueryBatches runs several tables' batches as one joint batch. Each
// table's batch is validated and planned on its own. Cluster tables —
// remote tables among them — then
// put every NDP exchange in flight before any is awaited — sub-batches
// for one shard transport (tables of one Engine naming the same shard
// address share it) ride one pipelined exchange on one pooled connection
// — and run their OTP sweeps while the exchanges are on the wire. Any
// other table runs its batch beside them, as Table.QueryBatch alone
// would. Each table's answers are joined and verified as
// Table.QueryBatch's are, with the same fallbacks; a table whose exchange
// failed as a whole fails its own requests without touching the others.
// The tables may belong to different engines; none may be nil.
func QueryBatches(ctx context.Context, batches []TableBatch) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc := jointPool.Get().(*jointScratch)
	defer sc.release()
	js := sc.batches(len(batches))
	parts := sc.parts[:0]
	defer func() { sc.parts = parts }()
	nreqs := 0
	for i := range batches {
		nreqs += len(batches[i].Reqs)
	}
	creqs := slices.Grow(sc.creqs[:0], nreqs)
	defer func() { sc.creqs = creqs }()
	for i := range batches {
		b, j := &batches[i], &js[i]
		j.part = -1
		if len(b.Reqs) == 0 {
			b.Results, b.Err = []Result{}, nil
			continue
		}
		if tel := b.Table.eng.tel; tel != nil {
			tel.batches.Inc()
		}
		if j.mode, creqs = j.plan(ctx, b, creqs); j.mode == batchJoint {
			if sub := j.walk.Requests(); len(sub) > 0 {
				j.part = len(parts)
				parts = append(parts, cluster.BatchPart{Ctx: j.qctx, NDP: j.t.cnd,
					Geo: j.st.tab.Geometry(), Reqs: sub, Verify: j.opts.Verify})
			}
		}
	}
	var ex *cluster.Batches
	if len(parts) > 0 {
		ex = cluster.StartBatches(parts)
		defer ex.Close()
	}
	// The other tables' batches run whole, then the cluster tables' OTP
	// sweeps, all while the joint exchange is on the wire: one after
	// another on this goroutine, since the hand-offs of running them side
	// by side cost more than they save at the sizes a drain reaches.
	for i := range js {
		if j := &js[i]; j.mode == batchSolo {
			j.bres = j.st.tab.QueryBatchCtx(j.qctx, j.st.ndp, j.creqs, j.opts)
		}
	}
	for i := range js {
		if j := &js[i]; j.mode == batchJoint {
			j.walk.Sweep(j.qctx)
		}
	}
	if ex != nil {
		ex.Finish()
	}
	for i := range batches {
		b, j := &batches[i], &js[i]
		switch j.mode {
		case batchJoint:
			var res []core.NDPBatchResult
			var err error
			if j.part >= 0 {
				res, err = parts[j.part].Res, parts[j.part].Err
			}
			j.bres = j.walk.Join(res, err)
			j.walk.Release()
			fallthrough
		case batchSolo:
			b.Results, b.Err = j.finish(ctx, b.Reqs, sc)
		case batchPool:
			if tel := b.Table.eng.tel; tel != nil {
				tel.batchFanout.Inc()
			}
			b.Results, b.Err = b.Table.queryBatchPool(ctx, b.Reqs)
		}
	}
}

// jointScratch is QueryBatches' working set — one jointBatch per table,
// the cluster parts, every table's core requests in one arena, and the
// per-request errors each table's finish collects — pooled from call to
// call, so a call allocates only the results it returns.
type jointScratch struct {
	js    []jointBatch
	parts []cluster.BatchPart
	creqs []core.BatchRequest
	errs  []error
}

var jointPool = sync.Pool{New: func() any { return new(jointScratch) }}

// batches returns n zeroed jointBatch slots.
func (sc *jointScratch) batches(n int) []jointBatch {
	if cap(sc.js) < n {
		sc.js = make([]jointBatch, n)
	}
	return sc.js[:n]
}

// release clears what the call left in the scratch and pools it.
func (sc *jointScratch) release() {
	clear(sc.js[:cap(sc.js)])
	clear(sc.parts[:cap(sc.parts)])
	clear(sc.creqs[:cap(sc.creqs)])
	clear(sc.errs[:cap(sc.errs)])
	sc.parts, sc.creqs = sc.parts[:0], sc.creqs[:0]
	jointPool.Put(sc)
}

// How QueryBatches runs one table's batch.
const (
	// batchNone: an empty batch, answered empty.
	batchNone = iota
	// batchPool: the batch cannot coalesce (element-indexed or mixed
	// verification requests, or a policy error the per-request pool
	// reports per request); Table.queryBatchPool serves it.
	batchPool
	// batchJoint: a cluster table's coalesced batch — a remote table's
	// among them — its walk split around the joint exchange.
	batchJoint
	// batchSolo: a LocalBackend table's coalesced batch, run whole by
	// core.Table.QueryBatchCtx beside the joint exchange — an in-process
	// NDP has no exchange to share.
	batchSolo
)

// jointBatch is one table's batch inside QueryBatches, between its plan
// and its results.
type jointBatch struct {
	mode  int
	part  int // a joint batch's index among the call's parts; -1: none
	t     *Table
	st    *tableState
	start time.Time
	span  *telemetry.ActiveSpan
	qctx  context.Context
	cflag *cluster.Flag
	fctx  cluster.FlagContext // a cluster table's qctx
	creqs []core.BatchRequest
	stats core.BatchStats
	opts  core.QueryOptions
	walk  core.BatchWalk
	bres  []core.BatchResult
}

// plan picks the batch's mode and, for a coalescing batch, opens its
// root span and frames its core requests, appended to arena; a joint
// batch is planned too.
func (j *jointBatch) plan(ctx context.Context, b *TableBatch, arena []core.BatchRequest) (int, []core.BatchRequest) {
	t, reqs := b.Table, b.Reqs
	st := t.state.Load()
	unverified := reqs[0].Unverified
	for i := range reqs {
		if reqs[i].Cols != nil || reqs[i].Unverified != unverified {
			return batchPool, arena
		}
	}
	verify, err := t.resolveVerify(st, unverified)
	if err != nil {
		return batchPool, arena
	}
	j.t, j.st = t, st
	j.start = time.Now()
	var rctx context.Context
	rctx, j.span = t.eng.tel.startSpan(ctx, "query_batch")
	j.qctx = rctx
	if t.cnd != nil {
		j.fctx.Reset(rctx)
		j.qctx, j.cflag = &j.fctx, &j.fctx.Flag
	}
	off := len(arena)
	for i := range reqs {
		arena = append(arena, core.BatchRequest{Idx: reqs[i].Idx, Weights: reqs[i].Weights})
	}
	j.creqs = arena[off:len(arena):len(arena)]
	j.stats = core.BatchStats{Requests: len(reqs)}
	j.opts = core.QueryOptions{Workers: t.eng.cfg.workers, Verify: verify, Stats: &j.stats}
	if t.cnd == nil {
		return batchSolo, arena
	}
	j.walk = st.tab.PlanBatch(j.creqs, j.opts)
	return batchJoint, arena
}

// finish turns the core results into the facade's: mirror fallback for
// the requests that qualify, Degraded marks for requests touching a
// mirror-filled shard, the answering epoch, the root span and the
// batch's telemetry.
func (j *jointBatch) finish(ctx context.Context, reqs []Request, sc *jointScratch) ([]Result, error) {
	t, st, span, verify, bres := j.t, j.st, j.span, j.opts.Verify, j.bres
	epoch := t.answerEpoch(st, j.cflag)
	out := make([]Result, len(reqs))
	sc.errs = slices.Grow(sc.errs[:0], len(reqs))[:len(reqs)]
	errs := sc.errs
	clear(errs)
	sawVerifyReject := false
	for i := range bres {
		if bres[i].Err == nil {
			out[i] = Result{Values: bres[i].Res, Verified: verify, Epoch: epoch}
			continue
		}
		qerr := bres[i].Err
		if errors.Is(qerr, ErrVerification) {
			sawVerifyReject = true
		}
		if t.shouldFallback(qerr) {
			fspan := span.Child("fallback")
			fb := time.Now()
			values, ferr := st.tab.LocalWeightedSum(ctx, t.mirror, reqs[i].Idx, reqs[i].Weights)
			tm := Timing{Fallback: time.Since(fb)}
			t.eng.tel.observePhases(tm)
			if ferr == nil {
				fspan.End()
				t.degraded.Add(1)
				out[i] = Result{Values: values, Degraded: true, Timing: tm, Epoch: epoch}
				continue
			}
			qerr = fmt.Errorf("secndp: fallback failed: %w (ndp: %w)", ferr, qerr)
			fspan.EndErr(qerr, classifyErr(qerr))
		}
		errs[i] = fmt.Errorf("request %d: %w", i, qerr)
	}
	if verify && !sawVerifyReject {
		t.verifyFails.Store(0)
	}
	// On a cluster backend, mirror fills for failed shards leave the batch
	// answers correct (and verified) but partially TEE-computed: mark every
	// successful request that touches a filled shard Degraded.
	if filled := j.cflag.Filled(); len(filled) > 0 {
		fset := make(map[int]struct{}, len(filled))
		for _, s := range filled {
			fset[s] = struct{}{}
		}
		smap := t.cnd.Map()
		for i := range out {
			if errs[i] != nil || out[i].Degraded {
				continue
			}
			for _, row := range reqs[i].Idx {
				if _, hit := fset[smap.Shard(row)]; hit {
					out[i].Degraded = true
					t.degraded.Add(1)
					break
				}
			}
		}
	}
	// Every coalesced result shares the batch's wall-clock total (and its
	// trace — the whole batch is one trace tree); the phase anatomy is
	// batch-level and lives in the registry, not on individual results.
	total := time.Since(j.start)
	verified, degraded := false, false
	var firstErr error
	for i := range out {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		out[i].Timing.Total = total
		out[i].Trace = traceHex(span.Trace())
		verified = verified || out[i].Verified
		degraded = degraded || out[i].Degraded
	}
	span.SetStatus(verified, degraded)
	span.EndErr(firstErr, classifyErr(firstErr))
	t.eng.tel.recordBatch(total, j.stats, out, errs, span.Trace())
	return out, errors.Join(errs...)
}

// answerEpoch is the serving epoch of an answer computed under st: its
// rotation count plus, on a cluster, the flips of the topology whose
// gather was accepted (cflag) — or, when none was, the live one.
func (t *Table) answerEpoch(st *tableState, cflag *cluster.Flag) uint64 {
	e := st.epoch
	if t.cnd != nil {
		topo := cflag.Epoch()
		if topo == 0 {
			topo = t.cnd.Epoch()
		}
		e += topo - 1
	}
	return e
}

// queryBatchPool is the per-request batch path: a request-level worker
// pool over independent queries — the software counterpart of several
// pooling operations in flight across the paper's NDP PU registers.
func (t *Table) queryBatchPool(ctx context.Context, reqs []Request) ([]Result, error) {
	out := make([]Result, len(reqs))
	errs := make([]error, len(reqs))
	pool := t.eng.cfg.workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > len(reqs) {
		pool = len(reqs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := t.query(ctx, reqs[i], 1)
				out[i] = res
				if err != nil {
					errs[i] = fmt.Errorf("request %d: %w", i, err)
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}
