package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/telemetry"
)

// flakyNDP wraps an honest shard behind a kill switch: a dead replica
// fails every operation with an error, as the wire client does.
type flakyNDP struct {
	inner *core.HonestNDP
	dead  atomic.Bool
}

var errReplicaDead = errors.New("replica dead")

func (f *flakyNDP) WeightedSumElem(ctx context.Context, geo core.Geometry, idx, jdx []int, w []uint64) (uint64, error) {
	if f.dead.Load() {
		return 0, errReplicaDead
	}
	return f.inner.WeightedSumElem(ctx, geo, idx, jdx, w)
}

func (f *flakyNDP) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	if f.dead.Load() {
		return nil, errReplicaDead
	}
	return f.inner.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// fakeNDP is an identity-only replica for exercising the failover order;
// its ops are never reached (tests drive do() with a recording op).
type fakeNDP struct {
	core.NDP
	id int
}

func newFakeGroup(t *testing.T, n int, cooldown time.Duration) *ReplicaGroup {
	t.Helper()
	reps := make([]core.NDP, n)
	for i := range reps {
		reps[i] = &fakeNDP{id: i}
	}
	g, err := NewGroup(0, reps, GroupConfig{Cooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func repID(rep core.NDP) int { return rep.(*fakeNDP).id }

func TestGroupValidation(t *testing.T) {
	if _, err := NewGroup(0, nil, GroupConfig{}); err == nil {
		t.Fatal("empty replica group accepted")
	}
	if _, err := NewGroup(0, []core.NDP{&fakeNDP{}, nil}, GroupConfig{}); err == nil {
		t.Fatal("nil replica accepted")
	}
}

// TestGroupFailoverOrder: the op lands on the preferred replica when it
// answers; a failure walks down the order, the answering replica becomes
// preferred and the failed one cools down to the tail.
func TestGroupFailoverOrder(t *testing.T) {
	g := newFakeGroup(t, 3, time.Hour) // cooldown long enough to be observable
	ctx := context.Background()

	var tried []int
	record := func(failUpTo int) func(context.Context, core.NDP) error {
		return func(_ context.Context, rep core.NDP) error {
			id := repID(rep)
			tried = append(tried, id)
			if id < failUpTo {
				return fmt.Errorf("down")
			}
			return nil
		}
	}

	// Healthy: only replica 0 (preferred) is consulted.
	if err := g.do(ctx, record(0)); err != nil {
		t.Fatal(err)
	}
	if len(tried) != 1 || tried[0] != 0 {
		t.Fatalf("healthy group tried %v, want [0]", tried)
	}

	// Replicas 0 and 1 down: the op fails over to 2, which becomes
	// preferred.
	tried = nil
	if err := g.do(ctx, record(2)); err != nil {
		t.Fatal(err)
	}
	if len(tried) != 3 || tried[0] != 0 || tried[1] != 1 || tried[2] != 2 {
		t.Fatalf("failover tried %v, want [0 1 2]", tried)
	}
	if g.Preferred() != 2 {
		t.Fatalf("preferred = %d after replica 2 answered, want 2", g.Preferred())
	}

	// Next op: 2 first (sticky), then the cooling-down 0 and 1 only as
	// the tail.
	tried = nil
	if err := g.do(ctx, record(0)); err != nil {
		t.Fatal(err)
	}
	if len(tried) != 1 || tried[0] != 2 {
		t.Fatalf("post-failover tried %v, want [2]", tried)
	}
}

// TestGroupCooldownRecovery: a failed replica rejoins the healthy head of
// the order once its cooldown lapses.
func TestGroupCooldownRecovery(t *testing.T) {
	g := newFakeGroup(t, 2, time.Millisecond)
	ctx := context.Background()

	// Kill 0 once: preference moves to 1, 0 cools down.
	err := g.do(ctx, func(_ context.Context, rep core.NDP) error {
		if repID(rep) == 0 {
			return fmt.Errorf("down")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.order(nil); got[0] != 1 || got[1] != 0 {
		t.Fatalf("order during cooldown = %v, want [1 0]", got)
	}
	time.Sleep(5 * time.Millisecond)
	// Cooldown over: 0 is healthy again (1 stays preferred).
	if got := g.order(nil); got[0] != 1 || got[1] != 0 {
		t.Fatalf("order after cooldown = %v, want [1 0]", got)
	}
	h := &g.health[0]
	if h.downUntil.Load() > time.Now().UnixNano() {
		t.Fatal("replica 0 still marked down after cooldown lapsed")
	}
}

// TestGroupCooldownGrowth: consecutive failures stretch the cooldown up
// to the 8x cap, and one success resets it.
func TestGroupCooldownGrowth(t *testing.T) {
	g := newFakeGroup(t, 1, time.Minute)
	for i := 0; i < 12; i++ {
		g.failure(0)
	}
	until := g.health[0].downUntil.Load() - time.Now().UnixNano()
	if until > int64(8*time.Minute) || until < int64(7*time.Minute) {
		t.Fatalf("cooldown after 12 consecutive failures = %v, want ~8m (capped)", time.Duration(until))
	}
	g.success(0)
	if g.health[0].consecFails.Load() != 0 || g.health[0].downUntil.Load() != 0 {
		t.Fatal("success did not reset health")
	}
}

// TestGroupAllFail: when every replica refuses, the error names the shard
// and carries each replica's failure.
func TestGroupAllFail(t *testing.T) {
	g := newFakeGroup(t, 3, time.Hour)
	err := g.do(context.Background(), func(_ context.Context, rep core.NDP) error {
		return fmt.Errorf("replica %d refused", repID(rep))
	})
	if err == nil {
		t.Fatal("want error when every replica fails")
	}
	msg := err.Error()
	if !strings.Contains(msg, "every replica failed") {
		t.Fatalf("error %q does not name total failure", msg)
	}
	for r := 0; r < 3; r++ {
		if !strings.Contains(msg, fmt.Sprintf("replica %d", r)) {
			t.Fatalf("error %q missing replica %d's failure", msg, r)
		}
	}
}

// TestGroupContextCancel: a canceled context aborts between attempts with
// the context's error, not a replica fault.
func TestGroupContextCancel(t *testing.T) {
	g := newFakeGroup(t, 2, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := g.do(ctx, func(context.Context, core.NDP) error { t.Fatal("op ran under canceled context"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGroupFailoverEquivalence: a 3-replica group over identical honest
// shards answers byte-identically to a bare shard, with any subset of
// replicas dead short of all of them — sums, tags, and the element path.
func TestGroupFailoverEquivalence(t *testing.T) {
	fx := buildFixture(t, 1, RangeSharding, memory.TagSep)
	reps := make([]*flakyNDP, 3)
	ndps := make([]core.NDP, 3)
	for r := range reps {
		reps[r] = &flakyNDP{inner: fx.shards[0].(*core.HonestNDP)}
		ndps[r] = reps[r]
	}
	g, err := NewGroup(0, ndps, GroupConfig{Cooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	oracle := fx.shards[0].(*core.HonestNDP)
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		// Round 0: all healthy. Round 1: replica 0 dead. Round 2: 0+1 dead.
		if round > 0 {
			reps[round-1].dead.Store(true)
		}
		idx, w := randQuery(rng, 64, 6)
		sum, _, err := sumOne(ctx, g, fx.geo, idx, w, false)
		if err != nil {
			t.Fatalf("round %d: Sum: %v", round, err)
		}
		want := oracle.WeightedSum(fx.geo, idx, w)
		for j := range want {
			if sum[j] != want[j] {
				t.Fatalf("round %d: Sum[%d] = %d, want %d", round, j, sum[j], want[j])
			}
		}
		_, tag, err := sumOne(ctx, g, fx.geo, idx, w, true)
		if err != nil {
			t.Fatalf("round %d: Tag: %v", round, err)
		}
		if tag != oracle.TagSum(fx.geo, idx, w) {
			t.Fatalf("round %d: tag mismatch", round)
		}
		jdx := make([]int, len(idx))
		for k := range jdx {
			jdx[k] = rng.Intn(16)
		}
		el, err := g.WeightedSumElem(ctx, fx.geo, idx, jdx, w)
		if err != nil {
			t.Fatalf("round %d: Elem: %v", round, err)
		}
		if want, _ := oracle.WeightedSumElem(ctx, fx.geo, idx, jdx, w); el != want {
			t.Fatalf("round %d: Elem = %d, want %d", round, el, want)
		}
	}
	// All three dead: total failure surfaces as an error.
	reps[2].dead.Store(true)
	if _, _, err := sumOne(ctx, g, fx.geo, []int{0}, []uint64{1}, false); err == nil {
		t.Fatal("Sum succeeded with every replica dead")
	}
}

// TestGroupTelemetry: per-replica counters track subops and failures, the
// healthy gauge flips with replica state, and failovers land on the
// shared counter.
func TestGroupTelemetry(t *testing.T) {
	fx := buildFixture(t, 1, RangeSharding, memory.TagSep)
	reps := []*flakyNDP{
		{inner: fx.shards[0].(*core.HonestNDP)},
		{inner: fx.shards[0].(*core.HonestNDP)},
	}
	g, err := NewGroup(0, []core.NDP{reps[0], reps[1]}, GroupConfig{Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	failovers := reg.Counter("failovers", "test")
	g.instrument(reg, "shard0_", failovers)

	reps[0].dead.Store(true)
	if _, _, err := sumOne(context.Background(), g, fx.geo, []int{1}, []uint64{1}, false); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters := map[string]uint64{}
	gauges := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, ga := range snap.Gauges {
		gauges[ga.Name] = ga.Value
	}
	if counters["shard0_replica0_subops_total"] != 1 || counters["shard0_replica0_failures_total"] != 1 {
		t.Fatalf("replica0 counters = %v", counters)
	}
	if counters["shard0_replica1_subops_total"] != 1 || counters["shard0_replica1_failures_total"] != 0 {
		t.Fatalf("replica1 counters = %v", counters)
	}
	if counters["failovers"] != 1 {
		t.Fatalf("failovers = %d, want 1", counters["failovers"])
	}
	if gauges["shard0_replica0_healthy"] != 0 || gauges["shard0_replica1_healthy"] != 1 {
		t.Fatalf("healthy gauges = %v", gauges)
	}
}

// TestReplicatedEquivalence: a replicated cluster with one dead replica
// per shard answers byte-identically to a bare NDP over the whole table —
// no mirror configured, so any leak past failover would fail the query.
func TestReplicatedEquivalence(t *testing.T) {
	fx := buildFixture(t, 4, RangeSharding, memory.TagSep)
	groups := make([]*ReplicaGroup, 4)
	killed := make([]*flakyNDP, 4)
	for s := range groups {
		a := &flakyNDP{inner: fx.shards[s].(*core.HonestNDP)}
		b := &flakyNDP{inner: fx.shards[s].(*core.HonestNDP)}
		killed[s] = a
		g, err := NewGroup(s, []core.NDP{a, b}, GroupConfig{Cooldown: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		groups[s] = g
	}
	cnd, err := NewReplicated(fx.smap, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &core.HonestNDP{Mem: fx.staging}
	rng := rand.New(rand.NewSource(131))
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		if round == 1 {
			for _, f := range killed {
				f.dead.Store(true)
			}
		}
		idx, w := randQuery(rng, 64, 9)
		ictx, flag := WithFlag(ctx)
		sum, _, err := sumOne(ictx, cnd, fx.geo, idx, w, false)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := oracle.WeightedSum(fx.geo, idx, w)
		for j := range want {
			if sum[j] != want[j] {
				t.Fatalf("round %d: col %d: %d != %d", round, j, sum[j], want[j])
			}
		}
		_, tag, err := sumOne(ictx, cnd, fx.geo, idx, w, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tag != oracle.TagSum(fx.geo, idx, w) {
			t.Fatalf("round %d: tag mismatch", round)
		}
		if flag.Any() {
			t.Fatalf("round %d: replica failover marked the gather degraded", round)
		}
	}
}

// TestEpochGate: enter/exit bookkeeping, drain blocking until the last
// in-flight gather exits, and drain honoring cancellation.
func TestEpochGate(t *testing.T) {
	var g epochGate
	g.enter(1)
	g.enter(1)
	g.enter(2)
	if g.count(1) != 2 || g.count(2) != 1 {
		t.Fatalf("counts = %d/%d, want 2/1", g.count(1), g.count(2))
	}
	g.exit(1)

	done := make(chan error, 1)
	go func() { done <- g.drain(context.Background(), 1) }()
	select {
	case <-done:
		t.Fatal("drain returned with a gather still in flight")
	case <-time.After(10 * time.Millisecond):
	}
	g.exit(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("drain did not return after the last exit")
	}

	// Draining an epoch with no entries returns immediately.
	if err := g.drain(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	// A canceled context aborts a blocked drain.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.drain(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain under canceled ctx = %v, want context.Canceled", err)
	}
	g.exit(2)
}

// newBalancedGroup is newFakeGroup with a balance policy.
func newBalancedGroup(t *testing.T, n int, b Balance) *ReplicaGroup {
	t.Helper()
	reps := make([]core.NDP, n)
	for i := range reps {
		reps[i] = &fakeNDP{id: i}
	}
	g, err := NewGroup(0, reps, GroupConfig{Cooldown: time.Hour, Balance: b})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGroupRoundRobinSpreads: under BalanceRoundRobin every healthy
// replica takes the same share of first attempts instead of the
// preferred replica taking all of them.
func TestGroupRoundRobinSpreads(t *testing.T) {
	g := newBalancedGroup(t, 3, BalanceRoundRobin)
	first := map[int]int{}
	for i := 0; i < 9; i++ {
		if err := g.do(context.Background(), func(_ context.Context, rep core.NDP) error {
			first[repID(rep)]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		if first[r] != 3 {
			t.Fatalf("round-robin firsts %v, want 3 each", first)
		}
	}
}

// TestGroupRoundRobinSkipsCoolingDown: a failed replica cools down and
// the rotation continues over the survivors only; every op still
// succeeds (balancing must not weaken failover).
func TestGroupRoundRobinSkipsCoolingDown(t *testing.T) {
	g := newBalancedGroup(t, 3, BalanceRoundRobin)
	dead := 1
	hits := map[int]int{}
	for i := 0; i < 12; i++ {
		if err := g.do(context.Background(), func(_ context.Context, rep core.NDP) error {
			id := repID(rep)
			if id == dead {
				return fmt.Errorf("down")
			}
			hits[id]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if hits[dead] != 0 {
		t.Fatalf("dead replica served %d ops", hits[dead])
	}
	// After the first failure puts it in cooldown, the survivors split the
	// rotation; each must have served several ops.
	if hits[0] < 4 || hits[2] < 4 {
		t.Fatalf("survivors underused: %v", hits)
	}
}

// TestGroupLeastInflightOrder: the least-loaded healthy replica is tried
// first; ties and the rest follow in load order, stably.
func TestGroupLeastInflightOrder(t *testing.T) {
	g := newBalancedGroup(t, 3, BalanceLeastInflight)
	g.inflight[0].Store(5)
	g.inflight[1].Store(0)
	g.inflight[2].Store(2)
	order := g.order(nil)
	want := []int{1, 2, 0}
	for i, r := range want {
		if order[i] != r {
			t.Fatalf("least-inflight order %v, want %v", order, want)
		}
	}
}

// TestGroupInflightTracking: do() maintains the per-replica in-flight
// gauge — up while the op runs, back to zero after.
func TestGroupInflightTracking(t *testing.T) {
	g := newBalancedGroup(t, 2, BalanceLeastInflight)
	var seen int64
	if err := g.do(context.Background(), func(_ context.Context, rep core.NDP) error {
		seen = g.Inflight(repID(rep))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("in-flight during op = %d, want 1", seen)
	}
	for r := 0; r < 2; r++ {
		if v := g.Inflight(r); v != 0 {
			t.Fatalf("in-flight after op = %d on replica %d, want 0", v, r)
		}
	}
}
