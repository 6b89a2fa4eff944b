// Package cluster is the scatter-gather layer over many NDP servers: a
// shard map partitions a table's rows across N untrusted NDP nodes, each
// query is planned into per-shard sub-queries, the partial ciphertext
// sums come back concurrently, and the gather re-adds them in the ring
// (and the tag field) to exactly the single-NDP answer.
//
// Correctness rests on the scheme's linearity (paper §IV-F): the
// weighted sum Σ_k w_k·C[i_k] splits along any partition of the index
// list, the per-shard partials add back losslessly in Z(2^we), and the
// per-shard tag sums add back in F_q — so the gathered result, its
// decryption, and its verification transcript are byte-identical to a
// single NDP holding every row. Security is unchanged: each shard holds
// only ciphertext shares and tags for its rows (Secure Scattered Memory
// makes the same argument for distributing shares across untrusted
// nodes), and the one aggregated verification covers the whole gather.
package cluster

import (
	"fmt"

	"secndp/internal/core"
)

// Strategy selects how row indices map onto shards.
type Strategy int

const (
	// RangeSharding assigns contiguous blocks of ⌈rows/shards⌉ rows per
	// shard: provisioning ships one contiguous blob per shard and range
	// scans stay shard-local.
	RangeSharding Strategy = iota
	// HashSharding spreads rows by a fixed avalanche hash of the row
	// index: skewed/hot row sets load-balance across shards at the cost
	// of fragmented provisioning writes.
	HashSharding
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case RangeSharding:
		return "range"
	case HashSharding:
		return "hash"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Map is the authoritative row→shard assignment for one table. It is
// immutable after construction; the epoch number identifies the
// assignment generation so future live resharding can fence stale
// sub-queries (a shard that changed owners bumps the epoch, and partials
// computed under an older epoch are discarded at the gather).
type Map struct {
	numRows   int
	numShards int
	strategy  Strategy
	epoch     uint64
	chunk     int // RangeSharding: rows per shard, ⌈numRows/numShards⌉
}

// NewMap builds the row→shard assignment for numRows rows over numShards
// shards under the given strategy. epoch is the assignment generation
// (first provisioning uses 1).
func NewMap(numRows, numShards int, strategy Strategy, epoch uint64) (*Map, error) {
	if numRows < 0 {
		return nil, fmt.Errorf("cluster: negative row count %d", numRows)
	}
	if numShards <= 0 {
		return nil, fmt.Errorf("cluster: shard count %d must be positive", numShards)
	}
	switch strategy {
	case RangeSharding, HashSharding:
	default:
		return nil, fmt.Errorf("cluster: unknown sharding strategy %d", int(strategy))
	}
	m := &Map{numRows: numRows, numShards: numShards, strategy: strategy, epoch: epoch}
	if numRows > 0 {
		m.chunk = (numRows + numShards - 1) / numShards
	} else {
		m.chunk = 1
	}
	return m, nil
}

// NumRows returns the table's row count.
func (m *Map) NumRows() int { return m.numRows }

// NumShards returns the shard count.
func (m *Map) NumShards() int { return m.numShards }

// Strategy returns the sharding strategy.
func (m *Map) Strategy() Strategy { return m.strategy }

// Epoch returns the assignment generation.
func (m *Map) Epoch() uint64 { return m.epoch }

// mix64 is the splitmix64 finisher: a fixed, key-less avalanche over the
// row index. Shard placement is public information (the layout already
// is), so an unkeyed hash leaks nothing the adversary does not hold.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shard returns the owner of row i. The row must be in [0, NumRows);
// out-of-range rows panic, matching the layout's addressing discipline
// (callers validate queries before planning them).
func (m *Map) Shard(i int) int {
	if i < 0 || i >= m.numRows {
		panic(fmt.Sprintf("cluster: row %d out of range [0,%d)", i, m.numRows))
	}
	if m.strategy == RangeSharding {
		return i / m.chunk
	}
	return int(mix64(uint64(i)) % uint64(m.numShards))
}

// Runs returns shard's owned rows as maximal contiguous [lo,hi) runs in
// increasing order — the unit of provisioning: each run ships as one
// blob write at its global address. RangeSharding yields at most one
// run; HashSharding yields many short ones.
func (m *Map) Runs(shard int) [][2]int {
	if shard < 0 || shard >= m.numShards {
		panic(fmt.Sprintf("cluster: shard %d out of range [0,%d)", shard, m.numShards))
	}
	if m.numRows == 0 {
		return nil
	}
	if m.strategy == RangeSharding {
		lo := shard * m.chunk
		hi := lo + m.chunk
		if hi > m.numRows {
			hi = m.numRows
		}
		if lo >= hi {
			return nil
		}
		return [][2]int{{lo, hi}}
	}
	var runs [][2]int
	start := -1
	for i := 0; i < m.numRows; i++ {
		if m.Shard(i) == shard {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			runs = append(runs, [2]int{start, i})
			start = -1
		}
	}
	if start >= 0 {
		runs = append(runs, [2]int{start, m.numRows})
	}
	return runs
}

// SubQuery is one shard's slice of a weighted-sum query: the (row,
// weight) pairs it owns, in their original relative order.
type SubQuery struct {
	Shard   int
	Idx     []int
	Weights []uint64
}

// Split partitions one query's (idx, weights) pairs by owning shard.
// Only shards referenced by at least one row appear, in increasing shard
// order. Every pair lands on exactly one sub-query, so the per-shard
// partial sums re-add to the unsharded result by linearity. len(idx)
// must equal len(weights) and every index must be in range (callers
// validate with checkQuery first). It is SplitBatch's one-request case.
func (m *Map) Split(idx []int, weights []uint64) []SubQuery {
	batch := m.SplitBatch([]core.BatchRequest{{Idx: idx, Weights: weights}})
	if len(batch) == 0 {
		return nil
	}
	subs := make([]SubQuery, len(batch))
	for s, b := range batch {
		subs[s] = SubQuery{Shard: b.Shard, Idx: b.Reqs[0].Idx, Weights: b.Reqs[0].Weights}
	}
	return subs
}

// elemSub is one shard's slice of an element-indexed query: the (row,
// column, weight) triples it owns, in their original relative order.
type elemSub struct {
	Shard   int
	Idx     []int
	Jdx     []int
	Weights []uint64
}

// splitElem partitions an element-indexed query's (idx, jdx, weights)
// triples by owning shard, mirroring Split. Column picks ride along
// with their rows; by linearity the per-shard element partials add back
// to the unsharded scalar in the ring.
func (m *Map) splitElem(idx, jdx []int, weights []uint64) []elemSub {
	if len(idx) != len(weights) || len(idx) != len(jdx) {
		panic(fmt.Sprintf("cluster: %d indices vs %d columns vs %d weights", len(idx), len(jdx), len(weights)))
	}
	if len(idx) == 0 {
		return nil
	}
	counts := make([]int, m.numShards)
	for _, i := range idx {
		counts[m.Shard(i)]++
	}
	subs := make([]elemSub, 0, m.numShards)
	slot := make([]int, m.numShards)
	for s := range slot {
		slot[s] = -1
	}
	for s, c := range counts {
		if c == 0 {
			continue
		}
		slot[s] = len(subs)
		subs = append(subs, elemSub{
			Shard:   s,
			Idx:     make([]int, 0, c),
			Jdx:     make([]int, 0, c),
			Weights: make([]uint64, 0, c),
		})
	}
	for k, i := range idx {
		sub := &subs[slot[m.Shard(i)]]
		sub.Idx = append(sub.Idx, i)
		sub.Jdx = append(sub.Jdx, jdx[k])
		sub.Weights = append(sub.Weights, weights[k])
	}
	return subs
}

// SubBatch is one shard's slice of a query batch: the per-request
// sub-queries that touch the shard, plus the mapping back to the
// original request indices.
type SubBatch struct {
	Shard int
	// Reqs[j] holds request Origin[j]'s rows owned by this shard.
	Reqs []core.BatchRequest
	// Origin[j] is the index of Reqs[j] in the original batch.
	Origin []int
}

// SplitBatch partitions every request of a batch by owning shard. A
// request appears in a shard's sub-batch only if it references at least
// one row there; a request referencing no rows at all appears nowhere
// (its sum is the empty sum — zero). Only shards with at least one
// sub-request are returned, in increasing shard order, so each shard's
// sub-batch rides one WeightedTagSumBatch exchange and reuses the per-shard
// batch-plan dedup machinery unmodified. Within a sub-batch, Origin is
// increasing and each sub-request keeps its pairs' relative order.
//
// The partition makes a fixed handful of allocations whatever the batch
// size: pass 1 counts rows and sub-requests per shard, pass 2 fills one
// index arena, one weight arena, one sub-request array and one origin
// array shared by every shard, each shard's part contiguous. Every
// sub-request's Idx/Weights is capped (len == cap), so an append by a
// caller reallocates instead of overwriting its neighbour.
func (m *Map) SplitBatch(reqs []core.BatchRequest) []SubBatch {
	// Per-shard scratch: rowAt/reqAt hold pass 1's counts, then the next
	// free arena slot; seen marks the last request (1-based) that touched
	// the shard; begin is where that request's rows start; touched lists
	// the current request's shards in first-touch order.
	ns := m.numShards
	scratch := make([]int, 5*ns)
	rowAt, reqAt, seen := scratch[:ns], scratch[ns:2*ns], scratch[2*ns:3*ns]
	begin, touched := scratch[3*ns:4*ns], scratch[4*ns:4*ns]

	rows, subs, shards := 0, 0, 0
	for ri := range reqs {
		idx := reqs[ri].Idx
		if len(idx) != len(reqs[ri].Weights) {
			panic(fmt.Sprintf("cluster: %d indices vs %d weights", len(idx), len(reqs[ri].Weights)))
		}
		for _, i := range idx {
			s := m.Shard(i)
			rowAt[s]++
			if seen[s] != ri+1 {
				if reqAt[s] == 0 {
					shards++
				}
				seen[s] = ri + 1
				reqAt[s]++
				subs++
			}
		}
		rows += len(idx)
	}
	if subs == 0 {
		return nil
	}

	idxArena := make([]int, rows)
	wArena := make([]uint64, rows)
	reqArena := make([]core.BatchRequest, subs)
	origin := make([]int, subs)
	out := make([]SubBatch, 0, shards)
	rowOff, reqOff := 0, 0
	for s := 0; s < ns; s++ {
		nr, nq := rowAt[s], reqAt[s]
		if nq > 0 {
			end := reqOff + nq
			out = append(out, SubBatch{Shard: s, Reqs: reqArena[reqOff:end:end], Origin: origin[reqOff:end:end]})
		}
		rowAt[s], reqAt[s], seen[s] = rowOff, reqOff, 0
		rowOff += nr
		reqOff += nq
	}

	for ri := range reqs {
		weights := reqs[ri].Weights
		touched = touched[:0]
		for k, i := range reqs[ri].Idx {
			s := m.Shard(i)
			if seen[s] != ri+1 {
				seen[s] = ri + 1
				begin[s] = rowAt[s]
				touched = append(touched, s)
			}
			idxArena[rowAt[s]] = i
			wArena[rowAt[s]] = weights[k]
			rowAt[s]++
		}
		for _, s := range touched {
			lo, hi := begin[s], rowAt[s]
			reqArena[reqAt[s]] = core.BatchRequest{Idx: idxArena[lo:hi:hi], Weights: wArena[lo:hi:hi]}
			origin[reqAt[s]] = ri
			reqAt[s]++
		}
	}
	return out
}
