package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"secndp/internal/core"
	"secndp/internal/ring"
	"secndp/internal/telemetry"
)

// ReplicaGroup fronts one shard's R replicas: independent NDP servers
// provisioned with byte-identical ciphertext and tags for the shard's
// rows. Because the scheme is deterministic given (addr, version), any
// replica's partial sums are byte-identical to any other's, so failover
// needs no re-verification protocol — the gather's one aggregated MAC
// check covers a partial regardless of which replica produced it.
//
// Calls try the preferred replica first and fail over down the
// preference order on transport failure; the shard only surfaces an
// error (and the cluster only touches the TEE mirror) after every
// replica has refused. Health state is cheap and local: a replica that
// just failed is skipped for a cooldown window instead of paying its
// full retry/backoff latency on every query, and the first replica to
// answer becomes the new preferred one (stickiness keeps a healthy
// cluster on one connection per shard). A group is itself a core.NDP, so
// the cluster's scatter asks a group and the TEE mirror the same way.
// Safe for concurrent use.
type ReplicaGroup struct {
	shard    int
	replicas []core.NDP
	cooldown time.Duration
	balance  Balance

	// preferred is the replica index tried first; the last replica to
	// answer successfully.
	preferred atomic.Int32
	health    []replicaHealth
	// rr is the round-robin cursor (BalanceRoundRobin).
	rr atomic.Uint64
	// inflight counts the sub-operations currently running against each
	// replica (BalanceLeastInflight reads it; every policy maintains it).
	inflight []atomic.Int64

	// Per-replica telemetry handles (nil until instrument).
	tel       []replicaTel
	failovers *telemetry.Counter
}

// replicaHealth is one replica's failure-local state.
type replicaHealth struct {
	// consecFails counts consecutive failed attempts (any op).
	consecFails atomic.Uint32
	// downUntil is the unix-nano instant until which the replica is
	// skipped in the preference order. 0 = healthy.
	downUntil atomic.Int64
}

type replicaTel struct {
	subops    *telemetry.Counter
	failures  *telemetry.Counter
	healthyGa *telemetry.Gauge
}

// Balance selects how a replica group spreads reads across its healthy
// replicas. Replicas hold byte-identical ciphertext+tags, so any policy
// returns byte-identical partials; the policies differ only in which
// connections carry the load.
type Balance int

const (
	// BalanceSticky pins a healthy group to its preferred replica (the
	// last one to answer) — one warm connection per shard, the default.
	BalanceSticky Balance = iota
	// BalanceRoundRobin rotates the first attempt across the healthy
	// replicas, spreading read load (and connection pressure) evenly.
	BalanceRoundRobin
	// BalanceLeastInflight sends each read to the healthy replica with
	// the fewest sub-operations currently in flight, adapting to
	// replicas of uneven speed.
	BalanceLeastInflight
)

// GroupConfig tunes a replica group's failover behavior.
type GroupConfig struct {
	// Cooldown is how long a replica that just failed is demoted to the
	// tail of the preference order before being tried eagerly again.
	// While cooling down the replica is still reachable as a last
	// resort — the group always exhausts every replica before giving
	// up. <= 0 selects 500ms.
	Cooldown time.Duration
	// Balance selects the read load-balancing policy across healthy
	// replicas (default BalanceSticky). Failover semantics are
	// unchanged: every policy walks the full preference order, healthy
	// replicas before cooling-down ones.
	Balance Balance
}

// DefaultReplicaCooldown is the failover cooldown used when GroupConfig
// leaves it zero.
const DefaultReplicaCooldown = 500 * time.Millisecond

// NewGroup builds the failover group for one shard from its replica
// clients. Every replica must be provisioned with identical ciphertext
// and tags for the shard's rows.
func NewGroup(shard int, replicas []core.NDP, cfg GroupConfig) (*ReplicaGroup, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: shard %d: replica group needs at least one replica", shard)
	}
	for r, rep := range replicas {
		if rep == nil {
			return nil, fmt.Errorf("cluster: shard %d: nil replica %d", shard, r)
		}
	}
	cd := cfg.Cooldown
	if cd <= 0 {
		cd = DefaultReplicaCooldown
	}
	return &ReplicaGroup{
		shard:    shard,
		replicas: replicas,
		cooldown: cd,
		balance:  cfg.Balance,
		health:   make([]replicaHealth, len(replicas)),
		inflight: make([]atomic.Int64, len(replicas)),
	}, nil
}

// Size returns the replica count.
func (g *ReplicaGroup) Size() int { return len(g.replicas) }

// Shard returns the shard index the group serves.
func (g *ReplicaGroup) Shard() int { return g.shard }

// Replica returns replica r's client (for instrumentation and tests).
func (g *ReplicaGroup) Replica(r int) core.NDP { return g.replicas[r] }

// Preferred returns the replica currently tried first.
func (g *ReplicaGroup) Preferred() int { return int(g.preferred.Load()) }

// instrument attaches per-replica series. Called by NDP.Instrument under
// the same "before the first query" discipline.
func (g *ReplicaGroup) instrument(reg *telemetry.Registry, prefix string, failovers *telemetry.Counter) {
	g.failovers = failovers
	g.tel = make([]replicaTel, len(g.replicas))
	for r := range g.replicas {
		p := fmt.Sprintf("%sreplica%d_", prefix, r)
		g.tel[r] = replicaTel{
			subops: reg.Counter(p+"subops_total",
				fmt.Sprintf("Sub-operations attempted on shard %d replica %d.", g.shard, r)),
			failures: reg.Counter(p+"failures_total",
				fmt.Sprintf("Sub-operations on shard %d replica %d that failed at the transport.", g.shard, r)),
			healthyGa: reg.Gauge(p+"healthy",
				fmt.Sprintf("Shard %d replica %d health: 1 serving, 0 cooling down after a failure.", g.shard, r)),
		}
		g.tel[r].healthyGa.Set(1)
	}
}

// order appends the replica indices to try, in preference order per the
// group's Balance policy: the healthy replicas first (sticky-preferred,
// round-robin rotated, or least-inflight sorted), then the cooling-down
// ones (still tried — a replica mid-cooldown beats the TEE mirror as a
// last resort).
func (g *ReplicaGroup) order(dst []int) []int {
	now := time.Now().UnixNano()
	up := func(r int) bool { return g.health[r].downUntil.Load() <= now }
	head := len(dst)
	switch g.balance {
	case BalanceRoundRobin:
		n := len(g.replicas)
		start := int(g.rr.Add(1) % uint64(n))
		for i := 0; i < n; i++ {
			if r := (start + i) % n; up(r) {
				dst = append(dst, r)
			}
		}
	case BalanceLeastInflight:
		for r := range g.replicas {
			if up(r) {
				dst = append(dst, r)
			}
		}
		// Stable insertion sort by in-flight count: replica counts are
		// tiny (R is single digits), and stability keeps index order as
		// the tie-break.
		for i := head + 1; i < len(dst); i++ {
			for j := i; j > head && g.inflight[dst[j]].Load() < g.inflight[dst[j-1]].Load(); j-- {
				dst[j], dst[j-1] = dst[j-1], dst[j]
			}
		}
	default: // BalanceSticky
		pref := int(g.preferred.Load())
		if up(pref) {
			dst = append(dst, pref)
		}
		for r := range g.replicas {
			if r != pref && up(r) {
				dst = append(dst, r)
			}
		}
	}
	// Cooling-down tail: preference ordering matters little here.
	for r := range g.replicas {
		if !up(r) {
			dst = append(dst, r)
		}
	}
	return dst
}

// Inflight reports the sub-operations currently running against replica r
// (for tests and inspection).
func (g *ReplicaGroup) Inflight(r int) int64 { return g.inflight[r].Load() }

// success records replica r answering: health resets and r becomes
// preferred.
func (g *ReplicaGroup) success(r int) {
	h := &g.health[r]
	h.consecFails.Store(0)
	h.downUntil.Store(0)
	g.preferred.Store(int32(r))
	if g.tel != nil {
		g.tel[r].healthyGa.Set(1)
	}
}

// failure records replica r refusing: the replica cools down for a
// window that grows with its consecutive-failure run (capped at 8x), so
// a flapping replica backs off harder than a one-off blip.
func (g *ReplicaGroup) failure(r int) {
	h := &g.health[r]
	n := h.consecFails.Add(1)
	if n > 8 {
		n = 8
	}
	h.downUntil.Store(time.Now().UnixNano() + int64(g.cooldown)*int64(n))
	if g.tel != nil {
		g.tel[r].healthyGa.Set(0)
	}
}

// do runs op against the replicas in preference order until one succeeds;
// a panic out of op counts as that replica's failure. Failures beyond the
// first replica count as failovers; when every replica refuses, the joined
// error carries each replica's failure. A canceled context aborts between
// attempts — the caller's budget, not a replica fault.
//
// When ctx carries an active trace span, each replica attempt runs under
// its own child span (the ctx handed to op carries it, so a wire client
// stitches the server's spans beneath the attempt), and a failover —
// moving past the first replica in the order — lands a typed
// replica_failover event on the enclosing span.
func (g *ReplicaGroup) do(ctx context.Context, op func(ctx context.Context, rep core.NDP) error) error {
	return g.failover(ctx, -1, nil, op)
}

// failover is do's loop resumed after an attempt that already failed on
// replica prev (-1: none) with errs: the order is taken afresh, so prev,
// now cooling down, comes last. Moving on to a replica other than the one
// that just failed counts as a failover; a group of one retries prev.
func (g *ReplicaGroup) failover(ctx context.Context, prev int, errs []error, op func(ctx context.Context, rep core.NDP) error) error {
	span := telemetry.SpanFromContext(ctx)
	order := g.order(make([]int, 0, len(g.replicas)))
	for _, r := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prev >= 0 && r != prev {
			if g.failovers != nil {
				g.failovers.Inc()
			}
			span.Eventf(telemetry.EventReplicaFailover,
				"shard %d: replica %d failed, failing over to replica %d", g.shard, prev, r)
		}
		actx, aspan := g.begin(ctx, span, r)
		err := guarded("shard ndp", func() error { return op(actx, g.replicas[r]) })
		g.end(r, aspan, err)
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("replica %d: %w", r, err))
		prev = r
	}
	return fmt.Errorf("cluster: shard %d: every replica failed: %w", g.shard, errors.Join(errs...))
}

// begin opens one attempt on replica r: its sub-operation and in-flight
// counts and, under an active trace span, its replica child span, whose
// ctx the attempt runs under.
func (g *ReplicaGroup) begin(ctx context.Context, span *telemetry.ActiveSpan, r int) (context.Context, *telemetry.ActiveSpan) {
	if g.tel != nil {
		g.tel[r].subops.Inc()
	}
	g.inflight[r].Add(1)
	if span == nil {
		return ctx, nil
	}
	return span.StartChild(ctx, fmt.Sprintf("replica%d", r))
}

// end closes an attempt begun on replica r with its outcome: an answer
// resets r's health and makes it preferred, a failure cools it down.
func (g *ReplicaGroup) end(r int, aspan *telemetry.ActiveSpan, err error) {
	g.inflight[r].Add(-1)
	if err == nil {
		aspan.End()
		g.success(r)
		return
	}
	aspan.EndErr(err, telemetry.ErrClassTransport)
	if g.tel != nil {
		g.tel[r].failures.Inc()
	}
	g.failure(r)
}

// batchAttempt is a sub-batch's first attempt — do's first iteration
// split in two, so a caller can start every shard's attempt before it
// finishes any (see Batches): beginBatch picks the replica and opens the
// attempt, endBatch closes it with its outcome. A remote transport's
// exchange splits on the wire; an in-process replica answers whole
// between the two.
type batchAttempt struct {
	r    int // the replica; -1 when the context ended before the attempt
	ctx  context.Context
	span *telemetry.ActiveSpan
	err  error
	open bool // begun and not yet ended
}

// beginBatch opens a sub-batch's first attempt on the group's
// first-choice replica.
func (g *ReplicaGroup) beginBatch(ctx context.Context) batchAttempt {
	a := batchAttempt{r: -1}
	if a.err = ctx.Err(); a.err != nil {
		return a
	}
	var buf [8]int
	a.r = g.order(buf[:0])[0]
	a.ctx, a.span = g.begin(ctx, telemetry.SpanFromContext(ctx), a.r)
	a.open = true
	return a
}

// endBatch closes an open attempt with its outcome.
func (g *ReplicaGroup) endBatch(a *batchAttempt, err error) {
	if !a.open {
		return
	}
	a.err, a.open = err, false
	g.end(a.r, a.span, err)
}

// abortBatch abandons an open attempt that will not be finished: it ends
// without a verdict on the replica's health.
func (g *ReplicaGroup) abortBatch(a *batchAttempt) {
	if !a.open {
		return
	}
	a.open = false
	g.inflight[a.r].Add(-1)
	a.span.EndErr(errBatchAborted, telemetry.ErrClassTransport)
}

var errBatchAborted = errors.New("cluster: batch abandoned before its reply was read")

// batch runs a sub-batch through do's loop — resumed after a's failed
// first attempt when a is non-nil.
func (g *ReplicaGroup) batch(ctx context.Context, a *batchAttempt, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	prev, errs := -1, []error(nil)
	if a != nil && a.r >= 0 {
		prev, errs = a.r, []error{fmt.Errorf("replica %d: %w", a.r, a.err)}
	}
	var res []core.NDPBatchResult
	err := g.failover(ctx, prev, errs, func(ctx context.Context, rep core.NDP) error {
		var err error
		res, err = g.answer(ctx, rep, geo, reqs, verify)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// answer is one replica's whole sub-batch, held to one result per
// sub-request.
func (g *ReplicaGroup) answer(ctx context.Context, rep core.NDP, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	res, err := rep.WeightedTagSumBatch(ctx, geo, reqs, verify)
	if err == nil && len(res) != len(reqs) {
		return nil, fmt.Errorf("cluster: shard %d answered %d of %d sub-requests", g.shard, len(res), len(reqs))
	}
	return res, err
}

// WeightedTagSumBatch implements core.NDP: a sub-batch with failover.
// Batches are pure reads, so a replay against the next replica returns
// byte-identical partials.
func (g *ReplicaGroup) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	return g.batch(ctx, nil, geo, reqs, verify)
}

// WeightedSumElem implements core.NDP: the shard's element-indexed partial
// Σ_k w_k·C[i_k][j_k] with failover. The wire protocol has no element op,
// so the group fetches each referenced row as a unit-weight whole-row sum
// in one batched exchange and assembles the scalar on the trusted side;
// by linearity the result is byte-identical to what an honest NDP's
// element op would return. The fetch runs wholly against one replica and
// fails over as a unit.
func (g *ReplicaGroup) WeightedSumElem(ctx context.Context, geo core.Geometry, idx, jdx []int, weights []uint64) (uint64, error) {
	r, err := ring.New(geo.Params.We)
	if err != nil {
		return 0, err
	}
	reqs := make([]core.BatchRequest, len(idx))
	ones := make([]uint64, len(idx))
	for k := range idx {
		ones[k] = 1
		reqs[k] = core.BatchRequest{Idx: idx[k : k+1], Weights: ones[k : k+1]}
	}
	var res uint64
	err = g.do(ctx, func(ctx context.Context, rep core.NDP) error {
		rows, err := rep.WeightedTagSumBatch(ctx, geo, reqs, false)
		if err != nil {
			return err
		}
		if len(rows) != len(idx) {
			return fmt.Errorf("cluster: row fetch answered %d of %d rows", len(rows), len(idx))
		}
		var acc uint64
		for k := range rows {
			if rows[k].Err != nil {
				return rows[k].Err
			}
			if len(rows[k].Sums) != geo.Params.M {
				return fmt.Errorf("cluster: row fetch returned %d columns, want %d", len(rows[k].Sums), geo.Params.M)
			}
			acc += weights[k] * rows[k].Sums[jdx[k]]
		}
		res = r.Reduce(acc)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res, nil
}

var _ core.NDP = (*ReplicaGroup)(nil)
