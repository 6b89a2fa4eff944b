package cluster

import (
	"reflect"
	"testing"

	"secndp/internal/core"
)

// FuzzShardSplit drives the shard-map planner with arbitrary geometries
// and index lists and checks the partition invariants that the gather's
// correctness rests on: every (idx, weight) pair lands on exactly one
// sub-query, on its owning shard, in original relative order — so the
// per-shard partials re-add to the unsharded sum by linearity. Split and
// SplitBatch (on the same pairs cut into a batch, empty requests
// included) must also equal the test-only reference partitions below.
func FuzzShardSplit(f *testing.F) {
	f.Add(64, 4, 0, uint64(1), []byte{0, 1, 2, 3, 62, 63})
	f.Add(100, 7, 1, uint64(9), []byte{50, 50, 50, 0, 99})
	f.Add(1, 1, 0, uint64(2), []byte{0})
	f.Add(255, 16, 1, uint64(3), []byte{})
	f.Fuzz(func(t *testing.T, numRows, numShards, strat int, epoch uint64, raw []byte) {
		if numRows < 0 || numRows > 1<<16 || numShards <= 0 || numShards > 256 {
			t.Skip()
		}
		strategy := Strategy(strat & 1)
		m, err := NewMap(numRows, numShards, strategy, epoch)
		if err != nil {
			t.Fatalf("NewMap(%d, %d, %v): %v", numRows, numShards, strategy, err)
		}
		if m.Epoch() != epoch {
			t.Fatalf("epoch %d != %d", m.Epoch(), epoch)
		}
		if numRows == 0 {
			return
		}
		// Derive an in-range query from the raw bytes; weights vary with
		// position so order violations change the observable pairing.
		idx := make([]int, len(raw))
		weights := make([]uint64, len(raw))
		for k, b := range raw {
			idx[k] = int(b) % numRows
			weights[k] = uint64(b)<<8 | uint64(k&0xff)
		}

		subs := m.Split(idx, weights)
		total := 0
		cursor := make([]int, len(subs))
		prevShard := -1
		for si, sub := range subs {
			if sub.Shard <= prevShard || sub.Shard >= numShards {
				t.Fatalf("sub %d: shard %d after %d (of %d)", si, sub.Shard, prevShard, numShards)
			}
			prevShard = sub.Shard
			if len(sub.Idx) != len(sub.Weights) || len(sub.Idx) == 0 {
				t.Fatalf("shard %d: %d idx, %d weights", sub.Shard, len(sub.Idx), len(sub.Weights))
			}
			total += len(sub.Idx)
			for _, i := range sub.Idx {
				if m.Shard(i) != sub.Shard {
					t.Fatalf("row %d on shard %d, owned by %d", i, sub.Shard, m.Shard(i))
				}
			}
		}
		if total != len(idx) {
			t.Fatalf("%d pairs in, %d out", len(idx), total)
		}
		// Replay the original pair stream: each pair must be the next
		// unconsumed pair of its owning shard's sub-query.
		shardSub := make(map[int]int, len(subs))
		for si, sub := range subs {
			shardSub[sub.Shard] = si
		}
		for k := range idx {
			si, ok := shardSub[m.Shard(idx[k])]
			if !ok {
				t.Fatalf("row %d: owning shard %d has no sub-query", idx[k], m.Shard(idx[k]))
			}
			sub := subs[si]
			c := cursor[si]
			if c >= len(sub.Idx) || sub.Idx[c] != idx[k] || sub.Weights[c] != weights[k] {
				t.Fatalf("pair %d (row %d, weight %d) out of order on shard %d", k, idx[k], weights[k], sub.Shard)
			}
			cursor[si]++
		}

		// Runs partition the row space exactly once across shards.
		seen := 0
		for s := 0; s < numShards; s++ {
			for _, run := range m.Runs(s) {
				if run[0] < 0 || run[1] <= run[0] || run[1] > numRows {
					t.Fatalf("shard %d: bad run %v", s, run)
				}
				for i := run[0]; i < run[1]; i++ {
					if m.Shard(i) != s {
						t.Fatalf("run %v of shard %d holds row %d owned by %d", run, s, i, m.Shard(i))
					}
				}
				seen += run[1] - run[0]
			}
		}
		if seen != numRows {
			t.Fatalf("runs cover %d of %d rows", seen, numRows)
		}

		if !reflect.DeepEqual(subs, referenceSplit(m, idx, weights)) {
			t.Fatalf("Split differs from the reference partition")
		}
		// Cut the same pairs into a batch: a byte ≡ 0 mod 7 closes the
		// current request and is dropped, so adjacent cuts make empty
		// requests.
		var reqs []core.BatchRequest
		var cur core.BatchRequest
		for k, b := range raw {
			if b%7 == 0 {
				reqs = append(reqs, cur)
				cur = core.BatchRequest{}
				continue
			}
			cur.Idx = append(cur.Idx, idx[k])
			cur.Weights = append(cur.Weights, weights[k])
		}
		reqs = append(reqs, cur)
		checkSplitBatch(t, m, reqs)
	})
}

// checkSplitBatch holds SplitBatch to the per-request Split it replaced
// (referenceSplitBatch) and to the invariants the gather relies on.
func checkSplitBatch(t *testing.T, m *Map, reqs []core.BatchRequest) {
	t.Helper()
	got := m.SplitBatch(reqs)
	want := referenceSplitBatch(m, reqs)
	if len(got) != len(want) {
		t.Fatalf("SplitBatch: %d shards, reference %d", len(got), len(want))
	}
	for si := range got {
		g, w := got[si], want[si]
		if g.Shard != w.Shard || !reflect.DeepEqual(g.Origin, w.Origin) || len(g.Reqs) != len(w.Reqs) {
			t.Fatalf("sub-batch %d: shard %d origins %v, reference shard %d origins %v", si, g.Shard, g.Origin, w.Shard, w.Origin)
		}
		for j := range g.Reqs {
			if j > 0 && g.Origin[j] <= g.Origin[j-1] {
				t.Fatalf("shard %d: origins not increasing: %v", g.Shard, g.Origin)
			}
			gr := g.Reqs[j]
			if cap(gr.Idx) != len(gr.Idx) || cap(gr.Weights) != len(gr.Weights) {
				t.Fatalf("shard %d sub-request %d: len/cap %d/%d idx, %d/%d weights",
					g.Shard, j, len(gr.Idx), cap(gr.Idx), len(gr.Weights), cap(gr.Weights))
			}
			if !reflect.DeepEqual(gr, w.Reqs[j]) {
				t.Fatalf("shard %d sub-request %d (origin %d): %v, reference %v", g.Shard, j, g.Origin[j], gr, w.Reqs[j])
			}
			for _, i := range gr.Idx {
				if m.Shard(i) != g.Shard {
					t.Fatalf("row %d on shard %d, owned by %d", i, g.Shard, m.Shard(i))
				}
			}
		}
	}
}

// referenceSplit is the allocation-per-shard partition Split used before
// it became SplitBatch's one-request case: count per shard, then append
// each pair to its shard's sub-query in input order.
func referenceSplit(m *Map, idx []int, weights []uint64) []SubQuery {
	if len(idx) == 0 {
		return nil
	}
	counts := make([]int, m.numShards)
	for _, i := range idx {
		counts[m.Shard(i)]++
	}
	var subs []SubQuery
	slot := make([]int, m.numShards)
	for s, c := range counts {
		slot[s] = len(subs)
		if c > 0 {
			subs = append(subs, SubQuery{Shard: s, Idx: make([]int, 0, c), Weights: make([]uint64, 0, c)})
		}
	}
	for k, i := range idx {
		sub := &subs[slot[m.Shard(i)]]
		sub.Idx = append(sub.Idx, i)
		sub.Weights = append(sub.Weights, weights[k])
	}
	return subs
}

// referenceSplitBatch is the per-request SplitBatch: each request's
// referenceSplit, concatenated per shard.
func referenceSplitBatch(m *Map, reqs []core.BatchRequest) []SubBatch {
	perShard := make([]SubBatch, m.numShards)
	for ri := range reqs {
		for _, sub := range referenceSplit(m, reqs[ri].Idx, reqs[ri].Weights) {
			b := &perShard[sub.Shard]
			b.Reqs = append(b.Reqs, core.BatchRequest{Idx: sub.Idx, Weights: sub.Weights})
			b.Origin = append(b.Origin, ri)
		}
	}
	var out []SubBatch
	for s := range perShard {
		if len(perShard[s].Reqs) > 0 {
			perShard[s].Shard = s
			out = append(out, perShard[s])
		}
	}
	return out
}

// FuzzReshardPlan drives the reshard planner with arbitrary old/new map
// pairs and checks the migration invariants: the plan covers exactly the
// rows whose owner changed (no retained row ships, no moved row is
// missed), no row appears twice, every move's (From, To) matches the
// maps, and runs are maximal — adjacent moves never share a (From, To)
// pair they could have coalesced into.
func FuzzReshardPlan(f *testing.F) {
	f.Add(64, 2, 4, 0, 0)
	f.Add(64, 4, 2, 0, 0)
	f.Add(100, 3, 7, 0, 1)
	f.Add(100, 7, 3, 1, 0)
	f.Add(1, 1, 1, 1, 1)
	f.Fuzz(func(t *testing.T, numRows, oldShards, newShards, oldStrat, newStrat int) {
		if numRows <= 0 || numRows > 1<<14 ||
			oldShards <= 0 || oldShards > 128 || newShards <= 0 || newShards > 128 {
			t.Skip()
		}
		old, err := NewMap(numRows, oldShards, Strategy(oldStrat&1), 1)
		if err != nil {
			t.Fatal(err)
		}
		next, err := NewMap(numRows, newShards, Strategy(newStrat&1), 2)
		if err != nil {
			t.Fatal(err)
		}
		moves, err := PlanReshard(old, next)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, numRows)
		prevHi := -1
		for mi, mv := range moves {
			if mv.Lo < 0 || mv.Hi > numRows || mv.Lo >= mv.Hi {
				t.Fatalf("move %d: bad range [%d,%d)", mi, mv.Lo, mv.Hi)
			}
			if mv.Lo < prevHi {
				t.Fatalf("move %d: [%d,%d) overlaps or precedes previous (hi %d)", mi, mv.Lo, mv.Hi, prevHi)
			}
			if mi > 0 {
				p := moves[mi-1]
				if p.Hi == mv.Lo && p.From == mv.From && p.To == mv.To {
					t.Fatalf("moves %d and %d should have coalesced", mi-1, mi)
				}
			}
			prevHi = mv.Hi
			for i := mv.Lo; i < mv.Hi; i++ {
				if covered[i] {
					t.Fatalf("row %d planned twice", i)
				}
				covered[i] = true
				if old.Shard(i) != mv.From || next.Shard(i) != mv.To {
					t.Fatalf("row %d: move says %d->%d, maps say %d->%d",
						i, mv.From, mv.To, old.Shard(i), next.Shard(i))
				}
			}
		}
		for i := 0; i < numRows; i++ {
			if moved := old.Shard(i) != next.Shard(i); moved != covered[i] {
				t.Fatalf("row %d: owner change %v but planned %v", i, moved, covered[i])
			}
		}
	})
}
