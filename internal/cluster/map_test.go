package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"secndp/internal/core"
)

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(-1, 2, RangeSharding, 1); err == nil {
		t.Fatal("negative rows accepted")
	}
	if _, err := NewMap(8, 0, RangeSharding, 1); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewMap(8, 2, Strategy(99), 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	m, err := NewMap(8, 3, HashSharding, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 8 || m.NumShards() != 3 || m.Strategy() != HashSharding || m.Epoch() != 7 {
		t.Fatalf("accessors: %d rows, %d shards, %v, epoch %d", m.NumRows(), m.NumShards(), m.Strategy(), m.Epoch())
	}
}

func TestStrategyString(t *testing.T) {
	if RangeSharding.String() != "range" || HashSharding.String() != "hash" {
		t.Fatalf("%v / %v", RangeSharding, HashSharding)
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Fatalf("%v", Strategy(42))
	}
}

// TestRunsPartitionRows: over both strategies and assorted shapes, the
// per-shard runs are disjoint, sorted, in-range, and their union is
// exactly the rows Shard assigns to that shard.
func TestRunsPartitionRows(t *testing.T) {
	for _, strat := range []Strategy{RangeSharding, HashSharding} {
		for _, shape := range [][2]int{{0, 1}, {1, 1}, {5, 8}, {64, 1}, {64, 4}, {65, 4}, {100, 7}} {
			rows, shards := shape[0], shape[1]
			m, err := NewMap(rows, shards, strat, 1)
			if err != nil {
				t.Fatal(err)
			}
			owner := make([]int, rows)
			for i := 0; i < rows; i++ {
				owner[i] = m.Shard(i)
				if owner[i] < 0 || owner[i] >= shards {
					t.Fatalf("%v %dx%d: row %d → shard %d out of range", strat, rows, shards, i, owner[i])
				}
			}
			seen := make([]bool, rows)
			for s := 0; s < shards; s++ {
				prev := -1
				for _, run := range m.Runs(s) {
					lo, hi := run[0], run[1]
					if lo <= prev || hi <= lo || hi > rows {
						t.Fatalf("%v %dx%d shard %d: bad run [%d,%d) after %d", strat, rows, shards, s, lo, hi, prev)
					}
					prev = hi - 1
					for i := lo; i < hi; i++ {
						if owner[i] != s {
							t.Fatalf("%v %dx%d: run of shard %d contains row %d owned by %d", strat, rows, shards, s, i, owner[i])
						}
						seen[i] = true
					}
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("%v %dx%d: row %d in no run", strat, rows, shards, i)
				}
			}
		}
	}
}

func TestShardPanicsOutOfRange(t *testing.T) {
	m, _ := NewMap(8, 2, RangeSharding, 1)
	for _, i := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Shard(%d) did not panic", i)
				}
			}()
			m.Shard(i)
		}()
	}
}

// TestSplitPartition: every (idx, weight) pair lands on exactly one
// sub-query, on the owning shard, with relative order preserved.
func TestSplitPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, strat := range []Strategy{RangeSharding, HashSharding} {
		m, _ := NewMap(64, 4, strat, 1)
		idx := make([]int, 40)
		weights := make([]uint64, 40)
		for k := range idx {
			idx[k] = rng.Intn(64)
			weights[k] = rng.Uint64()
		}
		subs := m.Split(idx, weights)
		type pair struct {
			i int
			w uint64
		}
		var rejoined []pair
		prevShard := -1
		for _, sub := range subs {
			if sub.Shard <= prevShard {
				t.Fatalf("%v: shards out of order: %d after %d", strat, sub.Shard, prevShard)
			}
			prevShard = sub.Shard
			if len(sub.Idx) == 0 || len(sub.Idx) != len(sub.Weights) {
				t.Fatalf("%v: shard %d sub-query shape %d/%d", strat, sub.Shard, len(sub.Idx), len(sub.Weights))
			}
			for k, i := range sub.Idx {
				if m.Shard(i) != sub.Shard {
					t.Fatalf("%v: row %d on shard %d's sub-query, owned by %d", strat, i, sub.Shard, m.Shard(i))
				}
				rejoined = append(rejoined, pair{i, sub.Weights[k]})
			}
		}
		if len(rejoined) != len(idx) {
			t.Fatalf("%v: %d pairs in, %d out", strat, len(idx), len(rejoined))
		}
		// Per-shard relative order preserved ⇒ stable-partitioning the
		// original by shard reproduces the concatenation exactly.
		var want []pair
		for _, sub := range subs {
			for k := range idx {
				if m.Shard(idx[k]) == sub.Shard {
					want = append(want, pair{idx[k], weights[k]})
				}
			}
		}
		if !reflect.DeepEqual(rejoined, want) {
			t.Fatalf("%v: order not preserved", strat)
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	m, _ := NewMap(8, 2, RangeSharding, 1)
	if subs := m.Split(nil, nil); subs != nil {
		t.Fatalf("empty split: %v", subs)
	}
}

func TestSplitBatchOrigins(t *testing.T) {
	m, _ := NewMap(16, 4, RangeSharding, 1)
	reqs := []struct {
		idx     []int
		weights []uint64
	}{
		{[]int{0, 1}, []uint64{1, 2}},       // shard 0 only
		{[]int{0, 15}, []uint64{3, 4}},      // shards 0 and 3
		{nil, nil},                          // no rows: appears nowhere
		{[]int{4, 5, 6}, []uint64{5, 6, 7}}, // shard 1 only
	}
	breqs := make([]core.BatchRequest, len(reqs))
	for i, r := range reqs {
		breqs[i] = core.BatchRequest{Idx: r.idx, Weights: r.weights}
	}
	subs := m.SplitBatch(breqs)
	got := map[int][]int{} // shard → origins
	for _, sub := range subs {
		if len(sub.Reqs) != len(sub.Origin) {
			t.Fatalf("shard %d: %d reqs, %d origins", sub.Shard, len(sub.Reqs), len(sub.Origin))
		}
		got[sub.Shard] = sub.Origin
	}
	want := map[int][]int{0: {0, 1}, 1: {3}, 3: {1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("origins: got %v, want %v", got, want)
	}
}
