package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/ring"
	"secndp/internal/telemetry"
)

// NDP is the scatter-gather near-data processor over a cluster of
// shards: it implements core.NDP, so the whole trusted-side machinery — the concurrent
// query engine, the batched pipeline's pad dedup, the aggregated
// verification — runs over a cluster exactly as it runs over one
// server. Each call splits its requests by the shard map, has every
// per-shard sub-batch in flight at once, and re-adds the partials (ring
// for data sums, field for tag sums). A batch — a single query is a batch
// of one — is driven by its caller, which writes every shard's request
// before it reads any reply (StartBatches), and several tables' batches
// share one exchange per shard transport. Element queries scatter one
// goroutine per shard.
//
// Each shard is fronted by a ReplicaGroup of one or more servers
// provisioned with identical ciphertext+tags; a sub-query fails over
// down the group's preference order before the shard counts as failed.
// Only when every replica of a shard has refused does the gather fall
// back to the TEE ciphertext mirror (when attached): the failed shard's
// partial is recomputed inside the trusted side from the mirror's copy
// of exactly that shard's rows — the surviving shards' work is kept,
// and because the mirror holds the same ciphertext bytes the shard
// does, the filled gather still decrypts and verifies identically.
// Fills are reported through the context flag (WithFlag) so the facade
// can mark the result Degraded; replica failovers are not fills and
// never degrade a result.
//
// The row→shard assignment is an epoch-numbered topology swapped
// atomically by Reshard. Every gather snapshots one topology, registers
// with its epoch's drain gate, and — if the topology flipped while it
// was in flight — discards its partials (and any mirror fills they
// noted) and re-issues against the new topology, honoring the staleness
// contract documented on Map.
type NDP struct {
	// cur is the live topology; immutable once published. Reshard is
	// the only writer.
	cur  atomic.Pointer[topology]
	gate epochGate
	// reshardMu serializes Reshard calls.
	reshardMu sync.Mutex
	// Reshard progress, readable without reshardMu: total rows the
	// in-flight reshard will move and rows shipped so far. Both are
	// zero when no reshard has ever run; after completion they hold the
	// last reshard's figures (done == total).
	reshardTotal atomic.Int64
	reshardDone  atomic.Int64

	mirror core.NDP // HonestNDP over Options.Mirror; nil: exhausted shards are fatal for the call
	// source is the TEE-held ciphertext image rows are re-shipped from
	// during a reshard; nil disables Reshard.
	source *memory.Space

	// Telemetry handles; nil (registry never attached) makes every
	// record site a no-op. Instrument must be called before the first
	// query — reg is re-consulted only under reshardMu.
	reg          *telemetry.Registry
	gathers      *telemetry.Counter
	fills        *telemetry.Counter
	failures     *telemetry.Counter
	failovers    *telemetry.Counter
	staleRetries *telemetry.Counter
	reshards     *telemetry.Counter
	reshardRows  *telemetry.Counter
}

// topology bundles one epoch's shard map with the replica groups
// serving it, so a gather never observes a map from one epoch paired
// with groups from another. Immutable once published.
type topology struct {
	smap   *Map
	groups []*ReplicaGroup
	tel    []shardTel // nil when the registry was never attached
}

type shardTel struct {
	subops   *telemetry.Counter
	failures *telemetry.Counter
	seconds  *telemetry.Histogram
}

// Options configures a cluster NDP.
type Options struct {
	// Mirror, when non-nil, is the TEE-held ciphertext image of the
	// whole table: a shard whose every replica failed has its partial
	// recomputed from it (degraded mode) instead of failing the gather.
	Mirror *memory.Space
	// Source, when non-nil, is the TEE-held ciphertext image Reshard
	// streams moved rows from. It may be the same Space as Mirror; a
	// cluster without a Source cannot reshard.
	Source *memory.Space
	// Group tunes every shard's replica failover (see GroupConfig).
	Group GroupConfig
}

// New builds the scatter-gather NDP from a shard map and one client per
// shard (replica groups of size one). len(shards) must equal
// smap.NumShards().
func New(smap *Map, shards []core.NDP, opts Options) (*NDP, error) {
	if smap == nil {
		return nil, fmt.Errorf("cluster: nil shard map")
	}
	if len(shards) != smap.NumShards() {
		return nil, fmt.Errorf("cluster: %d shard clients for a %d-shard map", len(shards), smap.NumShards())
	}
	groups := make([]*ReplicaGroup, len(shards))
	for s, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("cluster: nil client for shard %d", s)
		}
		g, err := NewGroup(s, []core.NDP{sh}, opts.Group)
		if err != nil {
			return nil, err
		}
		groups[s] = g
	}
	return NewReplicated(smap, groups, opts)
}

// NewReplicated builds the scatter-gather NDP from a shard map and one
// replica group per shard. len(groups) must equal smap.NumShards().
func NewReplicated(smap *Map, groups []*ReplicaGroup, opts Options) (*NDP, error) {
	if smap == nil {
		return nil, fmt.Errorf("cluster: nil shard map")
	}
	if len(groups) != smap.NumShards() {
		return nil, fmt.Errorf("cluster: %d replica groups for a %d-shard map", len(groups), smap.NumShards())
	}
	for s, g := range groups {
		if g == nil {
			return nil, fmt.Errorf("cluster: nil replica group for shard %d", s)
		}
	}
	n := &NDP{source: opts.Source}
	if opts.Mirror != nil {
		n.mirror = &core.HonestNDP{Mem: opts.Mirror}
	}
	n.cur.Store(&topology{smap: smap, groups: groups})
	return n, nil
}

// Map returns the cluster's current shard map (the live epoch's).
func (n *NDP) Map() *Map { return n.cur.Load().smap }

// Epoch returns the live topology's assignment generation.
func (n *NDP) Epoch() uint64 { return n.cur.Load().smap.Epoch() }

// Group returns shard s's live replica group (for tests and tooling).
func (n *NDP) Group(s int) *ReplicaGroup { return n.cur.Load().groups[s] }

// Instrument attaches the cluster's metric series to reg: gather,
// mirror-fill, failover, and reshard counters, the live epoch gauge,
// plus per-shard sub-operation counts, failure counts, and latency
// histograms (secndp_cluster_shard<i>_*) and per-replica series
// (secndp_cluster_shard<i>_replica<r>_*). Call once, before the first
// query; Reshard re-instruments replacement topologies itself.
func (n *NDP) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.reg = reg
	n.gathers = reg.Counter("secndp_cluster_gathers_total",
		"Scatter-gather operations completed across the cluster (each sums per-shard partials).")
	n.fills = reg.Counter("secndp_cluster_mirror_fills_total",
		"Shard partials recomputed from the TEE ciphertext mirror after every replica of a shard failed.")
	n.failures = reg.Counter("secndp_cluster_shard_failures_total",
		"Per-shard sub-operations that failed after every replica gave up.")
	n.failovers = reg.Counter("secndp_cluster_replica_failovers_total",
		"Sub-operations retried on a sibling replica after the preferred replica failed.")
	n.staleRetries = reg.Counter("secndp_cluster_stale_gathers_total",
		"Gathers discarded and re-issued because the topology epoch flipped while they were in flight.")
	n.reshards = reg.Counter("secndp_cluster_reshards_total",
		"Completed live resharding operations (epoch flips).")
	n.reshardRows = reg.Counter("secndp_cluster_reshard_rows_moved_total",
		"Rows whose ciphertext+tags were streamed to a new owner shard during reshards.")
	reg.GaugeFunc("secndp_cluster_epoch",
		"Live topology epoch (bumps by one per completed reshard).",
		func() int64 { return int64(n.Epoch()) })
	reg.GaugeFunc("secndp_cluster_shards",
		"Shard count of the live topology.",
		func() int64 { return int64(n.Map().NumShards()) })
	n.instrumentTopology(n.cur.Load())
}

// instrumentTopology attaches per-shard and per-replica series to top.
// Metric constructors are idempotent, so topologies across reshards
// share series per shard index — counters continue, gauges re-bind.
func (n *NDP) instrumentTopology(top *topology) {
	reg := n.reg
	if reg == nil {
		return
	}
	top.tel = make([]shardTel, len(top.groups))
	for s, g := range top.groups {
		p := fmt.Sprintf("secndp_cluster_shard%d_", s)
		top.tel[s] = shardTel{
			subops: reg.Counter(p+"subops_total",
				fmt.Sprintf("Sub-operations dispatched to shard %d.", s)),
			failures: reg.Counter(p+"failures_total",
				fmt.Sprintf("Sub-operations against shard %d that failed on every replica.", s)),
			seconds: reg.Histogram(p+"seconds",
				fmt.Sprintf("Per-sub-operation latency of shard %d.", s), nil),
		}
		g.instrument(reg, p, n.failovers)
	}
}

func (top *topology) observe(shard int, d time.Duration, err error, failures *telemetry.Counter) {
	if top.tel == nil {
		return
	}
	st := &top.tel[shard]
	st.subops.Inc()
	st.seconds.Observe(d)
	if err != nil {
		st.failures.Inc()
		if failures != nil {
			failures.Inc()
		}
	}
}

func (n *NDP) noteGather() {
	if n.gathers != nil {
		n.gathers.Inc()
	}
}

// subSpan starts one per-shard sub-operation's child span under ctx's
// active trace span; when tracing is off it returns ctx unchanged and a
// nil span (all methods no-ops). The returned ctx rides into the shard's
// replica group, so replica attempts and server-side spans nest beneath.
func subSpan(ctx context.Context, kind string, shard int) (context.Context, *telemetry.ActiveSpan) {
	parent := telemetry.SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.StartChild(ctx, fmt.Sprintf("shard%d_%s", shard, kind))
}

// Flag collects what the cluster had to do behind a call's back: the
// shards whose partials were served from the TEE mirror, and the
// topology epoch that answered. The facade
// installs one with WithFlag before a query and reads it afterwards to
// mark results Degraded; concurrent sub-gathers of one query share it.
// Replica failovers are deliberately not collected — a failover result
// is byte-identical NDP work, not a degradation.
type Flag struct {
	mu     sync.Mutex
	filled map[int]struct{}
	epoch  uint64
}

type flagKey struct{}

// WithFlag derives a context carrying a fresh fill flag.
func WithFlag(ctx context.Context) (context.Context, *Flag) {
	f := &Flag{}
	return context.WithValue(ctx, flagKey{}, f), f
}

func flagFrom(ctx context.Context) *Flag {
	f, _ := ctx.Value(flagKey{}).(*Flag)
	return f
}

func (f *Flag) note(shard int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.filled == nil {
		f.filled = make(map[int]struct{})
	}
	f.filled[shard] = struct{}{}
}

// merge folds src's fills into f. The gather machinery runs each
// attempt under a private flag and merges only accepted (non-stale)
// attempts, so a discarded gather's mirror fills never degrade the
// re-issued result.
func (f *Flag) merge(src *Flag) {
	if f == nil || src == nil {
		return
	}
	for _, s := range src.Filled() {
		f.note(s)
	}
}

// noteEpoch records the topology epoch of a gather that was accepted.
func (f *Flag) noteEpoch(epoch uint64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.epoch = max(f.epoch, epoch)
	f.mu.Unlock()
}

// Epoch returns the topology epoch the call's accepted gathers ran
// under — the newest, if several ran — or 0 when none was accepted.
func (f *Flag) Epoch() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Filled returns the shards whose partials came from the mirror, in
// increasing order; empty means every partial came from its shard.
func (f *Flag) Filled() []int {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.filled))
	for s := range f.filled {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Any reports whether at least one partial was mirror-filled.
func (f *Flag) Any() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.filled) > 0
}

// epochGate counts in-flight gathers per epoch so a reshard can drain
// the old epoch before its resources are retired. Gathers enter/exit on
// the cold path of each scatter (one mutex op either side of a network
// round-trip); drain polls because gathers vastly outnumber reshards —
// a condvar would charge every gather for the reshard's convenience.
type epochGate struct {
	mu       sync.Mutex
	inflight map[uint64]int
}

func (g *epochGate) enter(epoch uint64) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[uint64]int)
	}
	g.inflight[epoch]++
	g.mu.Unlock()
}

func (g *epochGate) exit(epoch uint64) {
	g.mu.Lock()
	g.inflight[epoch]--
	if g.inflight[epoch] <= 0 {
		delete(g.inflight, epoch)
	}
	g.mu.Unlock()
}

func (g *epochGate) count(epoch uint64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight[epoch]
}

// drain blocks until no gather remains in the given epoch, or ctx ends.
func (g *epochGate) drain(ctx context.Context, epoch uint64) error {
	for g.count(epoch) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// gather runs one scatter-gather attempt against a consistent topology
// snapshot, re-issuing it if a reshard flipped the epoch while the
// attempt was in flight. Each attempt runs under a private fill flag
// merged into the caller's only on acceptance, so stale attempts leave
// no trace — their partials, errors, and mirror fills are all
// discarded. The epoch gate bounds how long Reshard waits: an accepted
// attempt exits the gate before Reshard's drain can complete.
func (n *NDP) gather(ctx context.Context, run func(ctx context.Context, top *topology) error) error {
	for {
		top := n.enter()
		ictx, flag := WithFlag(ctx)
		err := run(ictx, top)
		if n.accept(ctx, top, flag) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		n.noteStale(ctx, top)
	}
}

// enter snapshots the live topology and registers with its epoch's
// drain gate, retrying when a flip lands between the snapshot and the
// entry rather than racing the drain.
func (n *NDP) enter() *topology {
	for {
		top := n.cur.Load()
		n.gate.enter(top.smap.Epoch())
		if n.cur.Load() == top {
			return top
		}
		n.gate.exit(top.smap.Epoch())
	}
}

// accept exits top's drain gate and reports whether the attempt run
// under it stands: false when the topology flipped meanwhile. An
// accepted attempt's mirror fills (flag) and its topology epoch are
// recorded on ctx's flag.
func (n *NDP) accept(ctx context.Context, top *topology, flag *Flag) bool {
	epoch := top.smap.Epoch()
	n.gate.exit(epoch)
	if n.cur.Load() != top {
		return false
	}
	f := flagFrom(ctx)
	f.merge(flag)
	f.noteEpoch(epoch)
	return true
}

// noteStale records an attempt discarded because the topology flipped
// past top while it was in flight.
func (n *NDP) noteStale(ctx context.Context, top *topology) {
	if n.staleRetries != nil {
		n.staleRetries.Inc()
	}
	telemetry.SpanFromContext(ctx).Eventf(telemetry.EventStaleGatherReissue,
		"topology flipped past epoch %d mid-gather; partials discarded, re-issuing", top.smap.Epoch())
}

// guarded runs fn, converting a panic out of it — a misbehaving replica
// or a malformed mirror read — into an error naming what failed.
func guarded(what string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: %s failed: %v", what, r)
		}
	}()
	return fn()
}

// scatter is the scatter-gather step of the element query, and of a
// batch's shards whose first attempt failed: it issues count
// sub-operations concurrently, one goroutine each, op(ctx, si, g)
// running sub-operation si against its shard's (shardOf(si)) replica group
// g, which fails over across the shard's replicas. Only a sub-operation
// whose every replica refused is recomputed as op(ctx, si, mirror) from
// the TEE mirror when one is attached, noting the fill on the context
// flag; without a mirror an exhausted shard fails the gather. Every
// exhausted shard is offered to the mirror, and a failed fill's error —
// the first, if several fail — is returned once all have been. kind
// names the per-shard child spans.
func (n *NDP) scatter(ctx context.Context, top *topology, kind string, count int, shardOf func(si int) int,
	op func(ctx context.Context, si int, nd core.NDP) error) error {
	if count == 0 {
		return nil
	}
	errs := make([]error, count)
	var wg sync.WaitGroup
	for si := range count {
		s := shardOf(si)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, sspan := subSpan(ctx, kind, s)
			start := time.Now()
			errs[si] = op(sctx, si, top.groups[s])
			top.observe(s, time.Since(start), errs[si], n.failures)
			sspan.EndErr(errs[si], telemetry.ErrClassTransport)
		}()
	}
	wg.Wait()
	n.noteGather()
	var first error
	for si, err := range errs {
		if err == nil {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		s := shardOf(si)
		if n.mirror == nil {
			return fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		if ferr := guarded("mirror fill", func() error { return op(ctx, si, n.mirror) }); ferr != nil {
			if first == nil {
				first = fmt.Errorf("cluster: shard %d: %w (mirror fill failed: %v)", s, err, ferr)
			}
			continue
		}
		n.noteFill(ctx, s)
	}
	return first
}

func (n *NDP) noteFill(ctx context.Context, shard int) {
	flagFrom(ctx).note(shard)
	telemetry.SpanFromContext(ctx).Eventf(telemetry.EventMirrorFill,
		"shard %d partial recomputed from the TEE mirror", shard)
	if n.fills != nil {
		n.fills.Inc()
	}
}

// WeightedSumElem implements core.NDP: the element-indexed scalar Σ_k
// w_k·C[i_k][j_k] split by owning shard, each shard's partial computed
// with replica failover (see ReplicaGroup.WeightedSumElem for the
// whole-row fetch it rides on), exhausted shards filled from the mirror
// like any other partial. By linearity the reassembled scalar is
// byte-identical to the single-NDP element sum. Columns are range-checked
// before any shard is asked.
func (n *NDP) WeightedSumElem(ctx context.Context, geo core.Geometry, idx, jdx []int, weights []uint64) (uint64, error) {
	if len(jdx) != len(idx) || len(weights) != len(idx) {
		return 0, fmt.Errorf("cluster: %d rows, %d columns, %d weights", len(idx), len(jdx), len(weights))
	}
	for _, j := range jdx {
		if j < 0 || j >= geo.Params.M {
			return 0, fmt.Errorf("%w: column %d not in [0,%d)", core.ErrIndexRange, j, geo.Params.M)
		}
	}
	r, err := ring.New(geo.Params.We)
	if err != nil {
		return 0, err
	}
	var res uint64
	err = n.gather(ctx, func(ctx context.Context, top *topology) error {
		subs := top.smap.splitElem(idx, jdx, weights)
		partials := make([]uint64, len(subs))
		err := n.scatter(ctx, top, "elem", len(subs), func(si int) int { return subs[si].Shard },
			func(ctx context.Context, si int, nd core.NDP) (err error) {
				sub := &subs[si]
				partials[si], err = nd.WeightedSumElem(ctx, geo, sub.Idx, sub.Jdx, sub.Weights)
				return err
			})
		if err != nil {
			return err
		}
		var acc uint64
		for _, p := range partials {
			acc += p
		}
		res = r.Reduce(acc)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res, nil
}

var _ core.NDP = (*NDP)(nil)
