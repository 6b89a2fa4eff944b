package main

import (
	"fmt"
	"math/rand"

	"secndp"
	"secndp/internal/dlrm"
	"secndp/internal/serve"
)

// Everything the program under test receives is generated here from
// -seed: the key, the table contents, row indices, weights, the Zipf
// stream and the contents a rotation writes. The stack never sees the
// seed or the workload name.

// stream names one independent generator derived from the seed.
type stream uint64

const (
	streamKey stream = iota + 1
	streamRows
	streamRequests
)

// subSeed derives a stream's seed with a splitmix64 step, so neighbouring
// -seed values share nothing.
func subSeed(seed int64, s stream) int64 {
	z := uint64(seed) + uint64(s)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func genKey(seed int64) []byte {
	key := make([]byte, 16)
	rand.New(rand.NewSource(subSeed(seed, streamKey))).Read(key)
	return key
}

// table is one table's epoch-0 plaintext, packed the way an unprotected
// table of 32-bit elements would be: the oracle's copy, and the memory the
// plaintext baseline reads.
type table struct {
	cols int
	flat []uint32
}

func (t table) rows() int { return len(t.flat) / t.cols }

func (t table) row(i int) []uint32 { return t.flat[i*t.cols : (i+1)*t.cols] }

// genRows builds every table's epoch-0 plaintext. Elements stay below
// 2^20 so the reference sums are exact well inside the 32-bit ring.
func genRows(seed int64, spec *workloadSpec) []table {
	rng := rand.New(rand.NewSource(subSeed(seed, streamRows)))
	tables := make([]table, spec.Tables)
	for t := range tables {
		flat := make([]uint32, spec.Rows*spec.Cols)
		for i := range flat {
			flat[i] = rng.Uint32() & (1<<20 - 1)
		}
		tables[t] = table{cols: spec.Cols, flat: flat}
	}
	return tables
}

// rowsAtEpoch returns the table's contents at a content epoch —
// base+epoch mod 2^32 — in the [][]uint64 form CreateTable and Reencrypt
// take, reusing buf when it has the shape. Epochs stay distinguishable to
// the oracle because the shift is linear in the epoch.
func (t table) rowsAtEpoch(buf [][]uint64, epoch uint64) [][]uint64 {
	if len(buf) != t.rows() {
		flat := make([]uint64, len(t.flat))
		buf = make([][]uint64, t.rows())
		for i := range buf {
			buf[i] = flat[i*t.cols : (i+1)*t.cols]
		}
	}
	for i := range buf {
		for j, v := range t.row(i) {
			buf[i][j] = (uint64(v) + epoch) & (1<<elemBits - 1)
		}
	}
	return buf
}

// bag is one weighted row set with its plaintext oracle.
type bag struct {
	table int
	idx   []int
	w     []uint64
	// want is Σ w·row over the epoch-0 contents, reduced mod 2^32; wsum is
	// Σ w, so the oracle at epoch e is want + e·wsum.
	want []uint64
	wsum uint64
}

// request is one op's input: one bag (Query), a batch of bags
// (QueryBatch), or one bag per table (LookupBags). The call arguments
// are built once here so the measured loop converts nothing.
type request struct {
	bags []bag

	q []secndp.Request // the bags as facade requests
	s []serve.Bag      // the bags as serve bags

	// Built by withVariants for the few requests the ratio blocks and the
	// ladder replay: qu is q with Unverified set; unit and unitU are, per
	// bag, the coalescer's fetch shape — the bag's distinct rows as
	// single-row unit-weight requests.
	qu          []secndp.Request
	unit, unitU [][]secndp.Request
}

var unitWeight = []uint64{1}

func newRequest(bags []bag) request {
	r := request{bags: bags, q: make([]secndp.Request, len(bags)), s: make([]serve.Bag, len(bags))}
	for i := range bags {
		b := &bags[i]
		r.q[i] = secndp.Request{Idx: b.idx, Weights: b.w}
		r.s[i] = serve.Bag{Table: tableName(b.table), Idx: b.idx, Weights: b.w}
	}
	return r
}

// withVariants fills the unverified and unit-shape forms of each request.
func withVariants(reqs []request) []request {
	for r := range reqs {
		req := &reqs[r]
		n := len(req.bags)
		req.qu = make([]secndp.Request, n)
		req.unit, req.unitU = make([][]secndp.Request, n), make([][]secndp.Request, n)
		for i := range req.bags {
			b := &req.bags[i]
			req.qu[i] = secndp.Request{Idx: b.idx, Weights: b.w, Unverified: true}
			seen := make(map[int]bool, len(b.idx))
			for k, row := range b.idx {
				if seen[row] {
					continue
				}
				seen[row] = true
				req.unit[i] = append(req.unit[i], secndp.Request{Idx: b.idx[k : k+1], Weights: unitWeight})
				req.unitU[i] = append(req.unitU[i], secndp.Request{Idx: b.idx[k : k+1], Weights: unitWeight, Unverified: true})
			}
		}
	}
	return reqs
}

// plainSum is the unprotected computation the stack protects: the
// weighted row sum over plaintext, written into dst.
func plainSum(dst []uint64, t table, idx []int, w []uint64) {
	for j := range dst {
		dst[j] = 0
	}
	for k, i := range idx {
		wk := w[k]
		for j, v := range t.row(i) {
			dst[j] += wk * uint64(v)
		}
	}
	for j := range dst {
		dst[j] &= 1<<elemBits - 1
	}
}

func (b *bag) fillOracle(t table) {
	b.want = make([]uint64, t.cols)
	plainSum(b.want, t, b.idx, b.w)
	b.wsum = 0
	for _, w := range b.w {
		b.wsum += w
	}
}

// matches reports whether got is the bag's weighted sum at some epoch in
// [lo, hi], and which.
func (b *bag) matches(got []uint64, lo, hi uint64) (uint64, bool) {
	if len(got) != len(b.want) {
		return 0, false
	}
	for e := lo; e <= hi; e++ {
		shift := e * b.wsum
		ok := true
		for j, v := range b.want {
			if got[j] != (v+shift)&(1<<elemBits-1) {
				ok = false
				break
			}
		}
		if ok {
			return e, true
		}
	}
	return 0, false
}

// genRequests generates n requests with their oracles.
func genRequests(seed int64, spec *workloadSpec, tables []table, n int) ([]request, error) {
	reqs := make([]request, n)
	if spec.Zipf {
		tr, err := dlrm.NewTraffic(dlrm.TrafficSpec{
			Tables: spec.Tables, RowsPerTable: spec.Rows, BagSize: spec.BagRows,
			ZipfS: 1.07, MaxWeight: spec.MaxWeight,
		}, subSeed(seed, streamRequests))
		if err != nil {
			return nil, fmt.Errorf("traffic generator: %w", err)
		}
		for r := range reqs {
			lbs := tr.Next()
			bags := make([]bag, len(lbs))
			for i, lb := range lbs {
				bags[i] = bag{table: lb.Table, idx: lb.Idx, w: lb.Weights}
				bags[i].fillOracle(tables[lb.Table])
			}
			reqs[r] = newRequest(bags)
		}
		return reqs, nil
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamRequests)))
	for r := range reqs {
		bags := make([]bag, spec.BagsPerOp)
		for i := range bags {
			b := bag{table: i % spec.Tables, idx: make([]int, spec.BagRows), w: make([]uint64, spec.BagRows)}
			for k := range b.idx {
				b.idx[k] = rng.Intn(spec.Rows)
				b.w[k] = 1 + rng.Uint64()%spec.MaxWeight
			}
			b.fillOracle(tables[b.table])
			bags[i] = b
		}
		reqs[r] = newRequest(bags)
	}
	return reqs, nil
}
