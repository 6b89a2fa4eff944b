package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"secndp/internal/memory"
)

// These tests pin the engine's verified hot path (one keystream walk
// producing data pads and tag pads, pooled scratch, batched tag-pad
// encryption) to the reference protocol: referenceQuery and the unfused
// Verify entry point, which exercise the one-row-at-a-time kernels.

// hotpathTable builds an encrypted table plus honest NDP for one placement.
func hotpathTable(t testing.TB, placement memory.TagPlacement, n, m int, we uint, seed int64) (*Table, *HonestNDP, [][]uint64) {
	t.Helper()
	s, err := NewScheme(testKey)
	if err != nil {
		t.Fatal(err)
	}
	mem := memory.NewSpace()
	geo := mkGeometry(placement, n, m, we)
	rng := rand.New(rand.NewSource(seed))
	rows := boundedRows(rng, n, m, 1<<16)
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab, &HonestNDP{Mem: mem}, rows
}

// TestQueryVerifiedMatchesQueryPlusVerify is the hot-path oracle: for
// every tag placement QueryVerified must return exactly what the unfused
// composition (the reference's Algorithm 4, then Verify with the NDP's tag
// sum) accepts.
func TestQueryVerifiedMatchesQueryPlusVerify(t *testing.T) {
	placements := map[string]memory.TagPlacement{
		"coloc": memory.TagColoc,
		"sep":   memory.TagSep,
		"ecc":   memory.TagECC,
	}
	for name, pl := range placements {
		t.Run(name, func(t *testing.T) {
			tab, ndp, rows := hotpathTable(t, pl, 64, 32, 32, 50)
			rng := rand.New(rand.NewSource(51))
			for trial := 0; trial < 25; trial++ {
				pf := 1 + rng.Intn(48)
				idx := make([]int, pf)
				w := make([]uint64, pf)
				for k := range idx {
					idx[k] = rng.Intn(64)
					w[k] = 1 + rng.Uint64()%8
				}
				got, err := tab.QueryVerified(ndp, idx, w)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				want, err := referenceQuery(tab, ndp, idx, w, false)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("trial %d col %d: fused %d != reference %d", trial, j, got[j], want[j])
					}
				}
				plain := plainWeightedSum(tab.Geometry(), rows, idx, w)
				for j := range plain {
					if got[j] != plain[j] {
						t.Fatalf("trial %d col %d: %d != plaintext %d", trial, j, got[j], plain[j])
					}
				}
				ok, err := tab.Verify(idx, w, want, ndp.TagSum(tab.Geometry(), idx, w))
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("trial %d: unfused Verify rejected honest result", trial)
				}
			}
		})
	}
}

// TestQueryVerifiedConcurrentHammer runs many verified queries through the
// one engine at once — every shape — and checks every result against the
// serial reference computed up front. Under -race this proves the pooled
// scratch is never aliased across concurrent queries.
func TestQueryVerifiedConcurrentHammer(t *testing.T) {
	tab, ndp, _ := hotpathTable(t, memory.TagSep, 128, 32, 32, 60)
	rng := rand.New(rand.NewSource(61))
	const queries = 32
	type q struct {
		idx []int
		w   []uint64
		ref []uint64
	}
	qs := make([]q, queries)
	for i := range qs {
		pf := 1 + rng.Intn(96)
		qs[i].idx = make([]int, pf)
		qs[i].w = make([]uint64, pf)
		for k := range qs[i].idx {
			qs[i].idx[k] = rng.Intn(128)
			qs[i].w[k] = 1 + rng.Uint64()%8
		}
		ref, err := referenceQuery(tab, ndp, qs[i].idx, qs[i].w, true)
		if err != nil {
			t.Fatal(err)
		}
		qs[i].ref = ref
	}
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines take turns at the shapes, so inline, overlapped
			// and walked queries contend for the same pools.
			shape := shapes[g%len(shapes)]
			opts := QueryOptions{Workers: 2, Verify: true}
			for it := 0; it < iters; it++ {
				qq := &qs[(g*iters+it)%queries]
				got, err := shape.query(context.Background(), tab, ndp, qq.idx, qq.w, opts)
				if err != nil {
					errCh <- err
					return
				}
				if !slices.Equal(got, qq.ref) {
					t.Errorf("worker %d iter %d: engine diverges from reference", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestQueryVerifiedSteadyStateAllocs is the pool leak check: once the
// scratch pools are warm, a verified query — a batch of one — allocates
// one object when short and in process: its sums slab, which becomes the
// result (the gather's memory view stays on its stack). In every other
// shape it also allocates the NDP's result slice and the exchange
// goroutine's start. A
// query abandoned to cancellation must hand its scratch back: a leaked
// buffer shows up as the pool allocating a fresh one on every call. Under
// -race only the counts are skipped.
func TestQueryVerifiedSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation perturbs allocation counts")
	}
	tab, ndp, _ := hotpathTable(t, memory.TagSep, 256, 64, 32, 70)
	rng := rand.New(rand.NewSource(71))
	idx := make([]int, 128)
	w := make([]uint64, 128)
	for k := range idx {
		idx[k] = rng.Intn(256)
		w[k] = 1 + rng.Uint64()%8
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	opts := QueryOptions{Workers: 1, Verify: true}
	for _, shape := range shapes {
		engine := shape.dress(ndp)
		idx, w := shape.args(tab, idx, w)
		// Warm the pools.
		for i := 0; i < 4; i++ {
			if _, err := tab.QueryCtx(context.Background(), engine, idx, w, opts); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := tab.QueryCtx(context.Background(), engine, idx, w, opts); err != nil {
				t.Fatal(err)
			}
		})
		abandoned := testing.AllocsPerRun(50, func() {
			if _, err := tab.QueryCtx(cancelled, engine, idx, w, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query: %v", err)
			}
		})
		t.Logf("%s: %.1f allocs/op, %.1f when cancelled", shape.name, allocs, abandoned)
		if raceEnabled {
			// Every query above ran and was checked; only the counts are off.
			continue
		}
		budget := 3.0
		if shape.name == "inline" {
			budget = 1
		}
		if allocs > budget {
			t.Errorf("%s: steady-state verified query allocates %.1f/op, want <= %.0f (pool leak?)", shape.name, allocs, budget)
		}
		if abandoned > allocs {
			t.Errorf("%s: cancelled query allocates %.1f/op against %.1f/op when it completes (scratch not returned?)", shape.name, abandoned, allocs)
		}
	}
}
