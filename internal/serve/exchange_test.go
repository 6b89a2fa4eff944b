package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"secndp"
	"secndp/internal/serve"
)

// TestServeNoBagMixesEpochs pins a fetch across a Reencrypt publish. A
// lookup reads one row from the cache at epoch e and queues another
// behind a drain held on the wire; the table is then re-encrypted with
// new contents, so the queued row is fetched — and answered — at e+1. The
// bag must not fold the two: it is fetched again whole at the new epoch
// and equals the new contents' sum, verified.
func TestServeNoBagMixesEpochs(t *testing.T) {
	h, gate := newGatedHarness(t, 16, 8, 21, serve.Config{})
	ctx := context.Background()
	if _, err := h.svc.Lookup(ctx, serve.Bag{Table: h.names[0], Idx: []int{3}}); err != nil {
		t.Fatal(err)
	}
	old := h.plains[0]
	pinned := h.pin(gate)
	bag := serve.Bag{Table: h.names[0], Idx: []int{3, 5}, Weights: []uint64{2, 7}}
	mixed := h.lookupAsync(ctx, bag)
	h.queued(t, 1, 0) // row 3 hit the cache at epoch e; row 5 waits behind the pinned drain

	fresh := testRows(rand.New(rand.NewSource(22)), 16, 8, 1<<20)
	e := h.tabs[0].Epoch()
	if err := h.tabs[0].Reencrypt(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	if h.tabs[0].Epoch() != e+1 {
		t.Fatalf("epoch %d after Reencrypt, want %d", h.tabs[0].Epoch(), e+1)
	}
	h.plains[0] = fresh
	gate.Open()

	// The pinned fetch was planned under the old version and reads the
	// rewritten memory: it fails verification, as Reencrypt documents.
	if o := <-pinned; o.err != nil && !errors.Is(o.err, secndp.ErrVerification) {
		t.Fatalf("pinned lookup across the rewrite: %v", o.err)
	}
	o := <-mixed
	if o.err != nil {
		t.Fatalf("lookup across the publish: %v", o.err)
	}
	if !o.res.Verified {
		t.Fatal("lookup across the publish unverified")
	}
	want := plainSum(fresh, bag.Idx, bag.Weights, 8, 0xFFFFFFFF)
	if !slices.Equal(o.res.Values, want) {
		stale := plainSum(old, bag.Idx, bag.Weights, 8, 0xFFFFFFFF)
		t.Fatalf("bag = %v, want the new contents' %v (the old contents' sum is %v): rows of two epochs folded into one Verified bag",
			o.res.Values, want, stale)
	}
}

// exchangeHarness is four tables of one engine sharded over the same two
// NDP servers by address, so every table's shard transports are the
// engine's two shared ones, with a service over them.
func exchangeHarness(t *testing.T, cfg serve.Config) (*harness, *secndp.Telemetry) {
	t.Helper()
	reg := secndp.NewTelemetry()
	eng, err := secndp.New(testKey, secndp.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var shards []secndp.ShardSpec
	for s := 0; s < 2; s++ {
		srv := secndp.NewServer(secndp.NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		shards = append(shards, secndp.ShardSpec{Addr: addr})
	}
	cfg.Registry = reg
	h := &harness{svc: serve.New(cfg)}
	t.Cleanup(h.svc.Close)
	rng := rand.New(rand.NewSource(23))
	for ti := 0; ti < 4; ti++ {
		plain := testRows(rng, 64, 8, 1<<20)
		name := fmt.Sprintf("emb%d", ti)
		tab, err := eng.CreateTable(context.Background(), secndp.ClusterBackend(shards...),
			secndp.TableSpec{Name: name, Rows: 64, Cols: 8, Base: secndp.DefaultBase + uint64(ti)<<20}, plain)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tab.Close)
		if err := h.svc.AddTable(name, tab); err != nil {
			t.Fatal(err)
		}
		h.tabs = append(h.tabs, tab)
		h.plains = append(h.plains, plain)
		h.names = append(h.names, name)
	}
	return h, reg
}

// TestServeOneExchangePerShard: one lookup missing on every table, on
// both shards, costs one pooled checkout — one wire attempt carrying all
// four tables' frames — per shard: 2, where a table-by-table fetch takes
// 8. The service runs on one P here so the lookup queues all four bags
// before the drain goroutine takes them.
func TestServeOneExchangePerShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, reg := exchangeHarness(t, serve.Config{CacheRows: -1})
	attempts := reg.Counter("secndp_transport_attempts_total", "")
	bags := make([]serve.Bag, len(h.names))
	for ti, name := range h.names {
		bags[ti] = serve.Bag{Table: name, Idx: []int{2, 40, 7}} // rows on both range shards
	}
	before := attempts.Value()
	res, err := h.svc.LookupBags(context.Background(), bags)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range bags {
		if !res[ti].Verified {
			t.Fatalf("table %d unverified", ti)
		}
		h.check(t, ti, bags[ti], res[ti])
	}
	if n := attempts.Value() - before; n != 2 {
		t.Fatalf("one four-table lookup took %d pooled checkouts, want 2: one exchange per shard", n)
	}
	if st := h.svc.Stats(); st.Batches != 1 {
		t.Fatalf("%d drains, want 1", st.Batches)
	}
}

// TestServeSharedPoolsDoNotChurn: under sustained closed-loop lookups the
// two shared pools, each now carrying four tables' exchanges at the
// default two idle connections, dial nothing after warm-up.
func TestServeSharedPoolsDoNotChurn(t *testing.T) {
	h, reg := exchangeHarness(t, serve.Config{CacheRows: 16})
	dials := reg.Counter("secndp_transport_dials_total", "")
	run := func(rounds int) {
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				bags := make([]serve.Bag, len(h.names))
				for r := 0; r < rounds; r++ {
					for ti, name := range h.names {
						bags[ti] = serve.Bag{Table: name, Idx: []int{rng.Intn(64), rng.Intn(64)}}
					}
					res, err := h.svc.LookupBags(context.Background(), bags)
					if err != nil {
						errs <- err
						return
					}
					for ti := range bags {
						if !res[ti].Verified {
							errs <- fmt.Errorf("table %d unverified", ti)
							return
						}
						h.check(t, ti, bags[ti], res[ti])
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	run(20)
	warm := dials.Value()
	run(100)
	if n := dials.Value() - warm; n != 0 {
		t.Fatalf("the shared pools dialed %d connections after warm-up, want 0", n)
	}
}
