package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// provNDP is an in-process replica that can also receive provisioning
// writes — the test double for a remote transport during resharding.
type provNDP struct {
	*core.HonestNDP
}

func newProvNDP(sp *memory.Space) *provNDP { return &provNDP{&core.HonestNDP{Mem: sp}} }

func (p *provNDP) WriteBlobContext(_ context.Context, addr uint64, data []byte) error {
	p.Mem.Write(addr, data)
	return nil
}

func (p *provNDP) WriteECCContext(_ context.Context, dataAddr uint64, tag []byte) error {
	p.Mem.WriteECC(dataAddr, tag)
	return nil
}

func mustMap(t *testing.T, rows, shards int, strat Strategy, epoch uint64) *Map {
	t.Helper()
	m, err := NewMap(rows, shards, strat, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlanReshardRange: a 2→4 range split moves exactly the back half of
// each old shard, coalesced into two long runs; 4→2 is its mirror image.
func TestPlanReshardRange(t *testing.T) {
	m2 := mustMap(t, 64, 2, RangeSharding, 1)
	m4 := mustMap(t, 64, 4, RangeSharding, 2)

	moves, err := PlanReshard(m2, m4)
	if err != nil {
		t.Fatal(err)
	}
	// Old: shard0 = [0,32), shard1 = [32,64). New: 16-row quarters.
	// Rows 16..31 move 0→1, rows 32..47 keep shard... no: new owner of
	// [32,48) is shard 2, of [48,64) shard 3. [0,16) stays on 0.
	want := []Move{{Lo: 16, Hi: 32, From: 0, To: 1}, {Lo: 32, Hi: 48, From: 1, To: 2}, {Lo: 48, Hi: 64, From: 1, To: 3}}
	if len(moves) != len(want) {
		t.Fatalf("moves = %+v, want %+v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("move %d = %+v, want %+v", i, moves[i], want[i])
		}
	}

	back, err := PlanReshard(m4, mustMap(t, 64, 2, RangeSharding, 3))
	if err != nil {
		t.Fatal(err)
	}
	wantBack := []Move{{Lo: 16, Hi: 32, From: 1, To: 0}, {Lo: 32, Hi: 48, From: 2, To: 1}, {Lo: 48, Hi: 64, From: 3, To: 1}}
	for i := range wantBack {
		if back[i] != wantBack[i] {
			t.Fatalf("reverse move %d = %+v, want %+v", i, back[i], wantBack[i])
		}
	}
}

func TestPlanReshardValidation(t *testing.T) {
	m := mustMap(t, 8, 2, RangeSharding, 1)
	if _, err := PlanReshard(nil, m); err == nil {
		t.Fatal("nil old map accepted")
	}
	if _, err := PlanReshard(m, nil); err == nil {
		t.Fatal("nil new map accepted")
	}
	if _, err := PlanReshard(m, mustMap(t, 16, 2, RangeSharding, 2)); err == nil {
		t.Fatal("row-count change accepted")
	}
	// Identical maps: nothing moves.
	moves, err := PlanReshard(m, mustMap(t, 8, 2, RangeSharding, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("identical maps planned %d moves", len(moves))
	}
}

// TestShipRun: shipped rows land byte-identical on the target space —
// data span plus tags under each placement — so a resharded replica is
// indistinguishable from a freshly provisioned one.
func TestShipRun(t *testing.T) {
	for _, placement := range []memory.TagPlacement{memory.TagSep, memory.TagColoc, memory.TagECC} {
		// Ver-ECC needs rows spanning enough cache lines to bank a full
		// tag in the ECC sideband; widen the rows for that placement.
		m := 16
		if placement == memory.TagECC {
			m = 32
		}
		s, err := core.NewScheme([]byte("k0k1k2k3k4k5k6k7"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(placement, 64, m, 32)
		rng := rand.New(rand.NewSource(53))
		staging := memory.NewSpace()
		if _, err := s.EncryptTable(staging, geo, 1, boundedRows(rng, 64, m, 1<<20)); err != nil {
			t.Fatal(err)
		}
		fx := struct {
			geo     core.Geometry
			staging *memory.Space
		}{geo, staging}
		dst := memory.NewSpace()
		target := newProvNDP(dst)
		if err := ShipRun(context.Background(), fx.geo, fx.staging, 10, 30, target); err != nil {
			t.Fatal(err)
		}
		lay := fx.geo.Layout
		for i := 10; i < 30; i++ {
			base := lay.RowAddr(i)
			want := fx.staging.Snapshot(base, int(lay.RowStride()))
			got := dst.Snapshot(base, int(lay.RowStride()))
			if string(want) != string(got) {
				t.Fatalf("placement %v: row %d data differs after ship", placement, i)
			}
			switch placement {
			case memory.TagSep:
				ta := lay.TagAddr(i)
				if string(dst.Snapshot(ta, memory.TagBytes)) != string(fx.staging.Snapshot(ta, memory.TagBytes)) {
					t.Fatalf("placement %v: row %d tag differs after ship", placement, i)
				}
			case memory.TagECC:
				if string(dst.ReadECC(base, memory.TagBytes)) != string(fx.staging.ReadECC(base, memory.TagBytes)) {
					t.Fatalf("placement %v: row %d ECC tag differs after ship", placement, i)
				}
			}
		}
		// Empty range is a no-op, not an error.
		if err := ShipRun(context.Background(), fx.geo, fx.staging, 5, 5, target); err != nil {
			t.Fatal(err)
		}
	}
}

// reshardFixture builds a replicated cluster whose replicas are provNDPs
// (queryable and provisionable) over sparse windows of the fixture's
// staging image.
func reshardFixture(t *testing.T, numShards, numReplicas int) (*fixture, *NDP, []*ReplicaGroup) {
	t.Helper()
	fx := buildFixture(t, numShards, RangeSharding, memory.TagSep)
	groups := make([]*ReplicaGroup, numShards)
	for s := 0; s < numShards; s++ {
		reps := make([]core.NDP, numReplicas)
		for r := range reps {
			sp := memory.NewSpace()
			for _, run := range fx.smap.Runs(s) {
				target := newProvNDP(sp)
				if err := ShipRun(context.Background(), fx.geo, fx.staging, run[0], run[1], target); err != nil {
					t.Fatal(err)
				}
			}
			reps[r] = newProvNDP(sp)
		}
		g, err := NewGroup(s, reps, GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		groups[s] = g
	}
	cnd, err := NewReplicated(fx.smap, groups, Options{Source: fx.staging})
	if err != nil {
		t.Fatal(err)
	}
	return fx, cnd, groups
}

// newGroupsFor builds replica groups for newMap: retained shard indices
// keep their old groups (the documented contract), new indices get fresh
// empty replicas that the reshard copy phase must fill.
func newGroupsFor(t *testing.T, fx *fixture, oldGroups []*ReplicaGroup, newMap *Map, numReplicas int) []*ReplicaGroup {
	t.Helper()
	groups := make([]*ReplicaGroup, newMap.NumShards())
	for s := range groups {
		if s < len(oldGroups) {
			groups[s] = oldGroups[s]
			continue
		}
		reps := make([]core.NDP, numReplicas)
		for r := range reps {
			reps[r] = newProvNDP(memory.NewSpace())
		}
		g, err := NewGroup(s, reps, GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		groups[s] = g
	}
	return groups
}

func assertClusterOracle(t *testing.T, fx *fixture, cnd *NDP, seed int64) {
	t.Helper()
	oracle := &core.HonestNDP{Mem: fx.staging}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for q := 0; q < 4; q++ {
		idx, w := randQuery(rng, 64, 7)
		sum, _, err := sumOne(ctx, cnd, fx.geo, idx, w, false)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.WeightedSum(fx.geo, idx, w)
		for j := range want {
			if sum[j] != want[j] {
				t.Fatalf("col %d: %d != %d", j, sum[j], want[j])
			}
		}
		_, tag, err := sumOne(ctx, cnd, fx.geo, idx, w, true)
		if err != nil {
			t.Fatal(err)
		}
		if tag != oracle.TagSum(fx.geo, idx, w) {
			t.Fatal("tag mismatch")
		}
	}
}

// TestReshardLive: 2→4 with 2 replicas per shard. Moved rows ship to
// every replica of their new owners in small chunks; after the flip the
// cluster answers byte-identically to the pre-reshard oracle and the
// epoch has advanced.
func TestReshardLive(t *testing.T) {
	fx, cnd, oldGroups := reshardFixture(t, 2, 2)
	assertClusterOracle(t, fx, cnd, 41)

	newMap := mustMap(t, 64, 4, RangeSharding, 2)
	groups := newGroupsFor(t, fx, oldGroups, newMap, 2)
	err := cnd.Reshard(context.Background(), fx.geo, newMap, groups,
		ReshardOptions{ChunkRows: 5, Pause: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if cnd.Epoch() != 2 {
		t.Fatalf("epoch = %d after reshard, want 2", cnd.Epoch())
	}
	if cnd.Map().NumShards() != 4 {
		t.Fatalf("live map has %d shards, want 4", cnd.Map().NumShards())
	}
	assertClusterOracle(t, fx, cnd, 43)

	// And back down: 4→2 retains shards 0 and 1.
	backMap := mustMap(t, 64, 2, RangeSharding, 3)
	backGroups := []*ReplicaGroup{groups[0], groups[1]}
	if err := cnd.Reshard(context.Background(), fx.geo, backMap, backGroups, ReshardOptions{}); err != nil {
		t.Fatal(err)
	}
	if cnd.Epoch() != 3 {
		t.Fatalf("epoch = %d after second reshard, want 3", cnd.Epoch())
	}
	assertClusterOracle(t, fx, cnd, 47)
}

// TestReshardValidationInternal: stale epochs, group-count mismatches,
// nil groups, and a missing source are all rejected before anything
// ships or flips.
func TestReshardValidationInternal(t *testing.T) {
	fx, cnd, oldGroups := reshardFixture(t, 2, 1)
	ctx := context.Background()

	if err := cnd.Reshard(ctx, fx.geo, nil, nil, ReshardOptions{}); err == nil {
		t.Fatal("nil map accepted")
	}
	sameEpoch := mustMap(t, 64, 2, RangeSharding, 1)
	if err := cnd.Reshard(ctx, fx.geo, sameEpoch, oldGroups, ReshardOptions{}); err == nil {
		t.Fatal("non-advancing epoch accepted")
	}
	next := mustMap(t, 64, 4, RangeSharding, 2)
	if err := cnd.Reshard(ctx, fx.geo, next, oldGroups, ReshardOptions{}); err == nil {
		t.Fatal("group-count mismatch accepted")
	}
	groups := newGroupsFor(t, fx, oldGroups, next, 1)
	groups[3] = nil
	if err := cnd.Reshard(ctx, fx.geo, next, groups, ReshardOptions{}); err == nil {
		t.Fatal("nil group accepted")
	}
	if cnd.Epoch() != 1 {
		t.Fatalf("failed reshards moved the epoch to %d", cnd.Epoch())
	}

	// No source: the copy phase has nothing to stream from.
	fx2 := buildFixture(t, 2, RangeSharding, memory.TagSep)
	g2 := make([]*ReplicaGroup, 2)
	for s := range g2 {
		g, err := NewGroup(s, []core.NDP{fx2.shards[s]}, GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		g2[s] = g
	}
	bare, err := NewReplicated(fx2.smap, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next2 := mustMap(t, 64, 4, RangeSharding, 2)
	if err := bare.Reshard(ctx, fx2.geo, next2, newGroupsFor(t, fx2, g2, next2, 1), ReshardOptions{}); err == nil {
		t.Fatal("reshard without a source accepted")
	}
}

// TestReshardStaleGatherReissue: a gather that straddles the epoch flip
// discards its stale partials and re-issues against the new topology —
// the caller sees one correct answer (Reshard's drain waits the straddler
// out, so the two synchronize exactly as documented).
func TestReshardStaleGatherReissue(t *testing.T) {
	fx, cnd, groups := reshardFixture(t, 2, 1)

	// Gate shard 1's replica so the test can hold one gather mid-flight.
	hold := make(chan struct{})
	held := make(chan struct{})
	var once sync.Once
	slow := &gatedNDP{NDP: groups[1].Replica(0), gate: func() {
		once.Do(func() {
			close(held)
			<-hold
		})
	}}
	slowGroup, err := NewGroup(1, []core.NDP{slow}, GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cnd, err = NewReplicated(fx.smap, []*ReplicaGroup{groups[0], slowGroup}, Options{Source: fx.staging})
	if err != nil {
		t.Fatal(err)
	}

	idx := []int{2, 40} // spans both shards
	w := []uint64{3, 5}
	type res struct {
		sum []uint64
		err error
	}
	done := make(chan res, 1)
	go func() {
		s, _, err := sumOne(context.Background(), cnd, fx.geo, idx, w, false)
		done <- res{s, err}
	}()
	<-held

	// Flip the epoch under the held gather. Same layout (no rows move),
	// same groups — only the epoch advances. Reshard's drain blocks on
	// the straddler, so it runs concurrently and the hold is released
	// once the flip is visible.
	newMap := mustMap(t, 64, 2, RangeSharding, 2)
	reshardDone := make(chan error, 1)
	go func() {
		reshardDone <- cnd.Reshard(context.Background(), fx.geo, newMap,
			[]*ReplicaGroup{groups[0], slowGroup}, ReshardOptions{})
	}()
	for cnd.Epoch() != 2 {
		time.Sleep(100 * time.Microsecond)
	}
	close(hold)
	if err := <-reshardDone; err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	oracle := &core.HonestNDP{Mem: fx.staging}
	want := oracle.WeightedSum(fx.geo, idx, w)
	for j := range want {
		if r.sum[j] != want[j] {
			t.Fatalf("col %d: %d != %d (stale partials leaked?)", j, r.sum[j], want[j])
		}
	}
}

// gatedNDP delays the first batch call via gate, then delegates.
type gatedNDP struct {
	core.NDP
	gate func()
}

func (g *gatedNDP) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	g.gate()
	return g.NDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
}
