package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"secndp"
	"secndp/internal/remote/faultproxy"
	"secndp/internal/serve"
)

var testKey = []byte("0123456789abcdef")

func testRows(rng *rand.Rand, n, m int, bound uint64) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % bound
		}
	}
	return rows
}

func plainSum(rows [][]uint64, idx []int, w []uint64, m int, mask uint64) []uint64 {
	acc := make([]uint64, m)
	for k, i := range idx {
		wk := uint64(1)
		if w != nil {
			wk = w[k]
		}
		for j := 0; j < m; j++ {
			acc[j] = (acc[j] + wk*rows[i][j]) & mask
		}
	}
	return acc
}

// harness is a Service over nTables local tables with known plaintext.
type harness struct {
	svc    *serve.Service
	tabs   []*secndp.Table
	plains [][][]uint64
	names  []string
}

func newHarness(t testing.TB, nTables, rows, cols int, seed int64, cfg serve.Config) *harness {
	t.Helper()
	return newHarnessOn(t, nTables, rows, cols, seed, cfg, func() secndp.Backend {
		return secndp.LocalBackend(secndp.NewMemory())
	})
}

// newGatedHarness is a one-table harness whose NDP fetches can be held
// at a gate (open at return): what pins a batch "on the wire" now that
// there is no window to hold it in.
func newGatedHarness(t *testing.T, rows, cols int, seed int64, cfg serve.Config) (*harness, *faultproxy.Gate) {
	t.Helper()
	gate := faultproxy.NewGate(secndp.NewMemory())
	// Open before Service.Close waits on its goroutines (cleanups run in
	// reverse), so a failed test cannot leave a fetch parked.
	h := newHarnessOn(t, 1, rows, cols, seed, cfg, func() secndp.Backend { return secndp.RemoteBackend(gate) })
	t.Cleanup(gate.Open)
	return h, gate
}

func newHarnessOn(t testing.TB, nTables, rows, cols int, seed int64, cfg serve.Config, backend func() secndp.Backend) *harness {
	t.Helper()
	eng, err := secndp.New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{svc: serve.New(cfg)}
	t.Cleanup(h.svc.Close)
	rng := rand.New(rand.NewSource(seed))
	for ti := 0; ti < nTables; ti++ {
		plain := testRows(rng, rows, cols, 1<<20)
		name := "emb" + string(rune('0'+ti))
		tab, err := eng.CreateTable(context.Background(), backend(),
			secndp.TableSpec{Name: name, Rows: rows, Cols: cols}, plain)
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
	return h
}

// eventually spins (yielding, never sleeping) until cond holds; the
// deadline only turns a hang into a failure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

type lookupOut struct {
	res serve.BagResult
	err error
}

// lookupAsync runs one lookup on its own goroutine.
func (h *harness) lookupAsync(ctx context.Context, bag serve.Bag) <-chan lookupOut {
	c := make(chan lookupOut, 1)
	go func() {
		res, err := h.svc.Lookup(ctx, bag)
		c <- lookupOut{res, err}
	}()
	return c
}

// pin shuts the gate and parks one lookup's batch (row 0) on the wire,
// so whatever is enqueued next queues behind it.
func (h *harness) pin(gate *faultproxy.Gate) <-chan lookupOut {
	gate.Shut()
	c := h.lookupAsync(context.Background(), serve.Bag{Table: h.names[0], Idx: []int{0}})
	gate.AwaitParked(1)
	return c
}

// queued waits until the first table's forming batch holds n rows and
// joins row references have joined a pending fetch.
func (h *harness) queued(t *testing.T, n int, joins uint64) {
	t.Helper()
	eventually(t, "lookups to enqueue behind the pinned batch", func() bool {
		q, running := h.svc.CoalescerState(h.names[0])
		if q > 0 && !running {
			t.Fatalf("invariant broken: %d rows queued and no drainer", q)
		}
		return q == n && h.svc.Stats().CoalesceJoins == joins
	})
}

func (h *harness) check(t *testing.T, ti int, bag serve.Bag, res serve.BagResult) {
	t.Helper()
	want := plainSum(h.plains[ti], bag.Idx, bag.Weights, len(h.plains[ti][0]), 0xFFFFFFFF)
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("table %d col %d: %d != %d", ti, j, res.Values[j], want[j])
		}
	}
}

// TestServeEquivalence: serving-layer bag lookups — assembled from
// cached and coalesced unit-weight fetches — are byte-identical to the
// plaintext oracle and to direct Table.Query, across random bags,
// weights, and repeat traffic that exercises the cache.
func TestServeEquivalence(t *testing.T) {
	h := newHarness(t, 2, 64, 16, 1, serve.Config{})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		ti := rng.Intn(2)
		n := 1 + rng.Intn(10)
		idx := make([]int, n)
		w := make([]uint64, n)
		for k := range idx {
			idx[k] = rng.Intn(64)
			w[k] = 1 + rng.Uint64()%8
		}
		bag := serve.Bag{Table: h.names[ti], Idx: idx, Weights: w}
		res, err := h.svc.Lookup(context.Background(), bag)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Verified {
			t.Fatalf("trial %d: unverified", trial)
		}
		h.check(t, ti, bag, res)
		// Cross-check against the facade directly.
		direct, err := h.tabs[ti].Query(context.Background(), secndp.Request{Idx: idx, Weights: w})
		if err != nil {
			t.Fatal(err)
		}
		for j := range direct.Values {
			if direct.Values[j] != res.Values[j] {
				t.Fatalf("trial %d col %d: serve %d != direct %d", trial, j, res.Values[j], direct.Values[j])
			}
		}
	}
	st := h.svc.Stats()
	if st.CacheHits == 0 {
		t.Error("repeat traffic produced no cache hits")
	}
}

// TestServeNilWeightsAndMultiTable: nil weights mean all-ones pooling,
// and one LookupBags call spanning every table returns per-bag results
// in order under a single admission slot.
func TestServeNilWeightsAndMultiTable(t *testing.T) {
	h := newHarness(t, 4, 32, 8, 3, serve.Config{})
	bags := make([]serve.Bag, 4)
	for ti := range bags {
		bags[ti] = serve.Bag{Table: h.names[ti], Idx: []int{1, 5, 5, 17}}
	}
	out, err := h.svc.LookupBags(context.Background(), bags)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d results for 4 bags", len(out))
	}
	for ti := range bags {
		h.check(t, ti, bags[ti], out[ti])
	}
}

// TestServeCoalescing: concurrent users hammering a small hot set (with
// the result cache disabled so every reference reaches the coalescer)
// must share fetches — the coalescing factor strictly exceeds 1 and
// every result still matches the oracle. A gated fetch of the whole hot
// set stays on the wire until every user's first lookup has joined it
// (what a 2 ms window used to arrange); after that the users run free.
func TestServeCoalescing(t *testing.T) {
	h, gate := newGatedHarness(t, 64, 16, 4, serve.Config{
		CacheRows: -1, // isolate coalescing from caching
	})
	gate.Shut()
	hot := h.lookupAsync(context.Background(), serve.Bag{Table: h.names[0], Idx: []int{0, 1, 2, 3, 4, 5, 6, 7}})
	gate.AwaitParked(1)
	const users = 32
	var wg sync.WaitGroup
	errc := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + u)))
			for i := 0; i < 8; i++ {
				idx := []int{rng.Intn(4), 4 + rng.Intn(4)} // tiny hot set
				bag := serve.Bag{Table: h.names[0], Idx: idx}
				res, err := h.svc.Lookup(context.Background(), bag)
				if err != nil {
					errc <- err
					return
				}
				want := plainSum(h.plains[0], idx, nil, 16, 0xFFFFFFFF)
				for j := range want {
					if res.Values[j] != want[j] {
						errc <- errors.New("value mismatch under coalescing")
						return
					}
				}
			}
		}(u)
	}
	h.queued(t, 0, 2*users) // every user's two rows joined the fetch on the wire
	gate.Open()
	wg.Wait()
	if o := <-hot; o.err != nil {
		t.Fatal(o.err)
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := h.svc.Stats()
	if st.CoalesceJoins < 2*users {
		t.Fatalf("%d coalesce joins, want at least the %d pinned ones", st.CoalesceJoins, 2*users)
	}
	if f := st.CoalescingFactor(); f <= 1 {
		t.Fatalf("coalescing factor %.2f, want > 1", f)
	}
}

// TestServeGroupCommit is the flush rule, deterministically: with one
// batch held on the wire, every lookup that arrives forms the next
// batch, and that batch leaves — whole, once — when the first returns.
// The first batch is run by the lookup that opened it, parked on the
// gate on its own goroutine; its backlog is handed to a drain goroutine
// exactly once.
func TestServeGroupCommit(t *testing.T) {
	h, gate := newGatedHarness(t, 64, 16, 11, serve.Config{CacheRows: -1})
	pinned := h.pin(gate)
	if st := h.svc.Stats(); st.Handoffs != 0 {
		t.Fatalf("%d hand-offs with only the opener's drain on the wire, want 0", st.Handoffs)
	}
	// Nine lookups behind the pinned batch: 12 distinct rows, 3 row
	// references that join a row already queued, 1 that joins the pinned
	// fetch itself.
	bags := [][]int{{1, 2}, {3}, {4, 5, 6}, {2, 7}, {8}, {9, 1}, {10, 11}, {12, 0}, {3}}
	outs := make([]<-chan lookupOut, len(bags))
	for i, idx := range bags {
		outs[i] = h.lookupAsync(context.Background(), serve.Bag{Table: h.names[0], Idx: idx})
	}
	h.queued(t, 12, 4)
	if st := h.svc.Stats(); st.Batches != 1 || st.Handoffs != 0 {
		t.Fatalf("%d batches and %d hand-offs while the first is on the wire, want 1 and 0", st.Batches, st.Handoffs)
	}
	gate.Open()
	if o := <-pinned; o.err != nil {
		t.Fatal(o.err)
	}
	for i, c := range outs {
		o := <-c
		if o.err != nil {
			t.Fatalf("lookup %d: %v", i, o.err)
		}
		if !o.res.Verified {
			t.Fatalf("lookup %d unverified", i)
		}
		h.check(t, 0, serve.Bag{Idx: bags[i]}, o.res)
	}
	st := h.svc.Stats()
	if st.Batches != 2 || st.RowsFetched != 13 {
		t.Fatalf("%d batches fetching %d rows, want 2 batches and 13 rows: the backlog must leave as one batch", st.Batches, st.RowsFetched)
	}
	if st.WindowFlushes != 2 || st.SizeFlushes != 0 {
		t.Fatalf("drain/size flushes %d/%d, want 2/0", st.WindowFlushes, st.SizeFlushes)
	}
	if st.Handoffs != 1 {
		t.Fatalf("%d hand-offs, want 1: the opener hands its backlog to a drain goroutine once", st.Handoffs)
	}
}

// TestServeIdleFlushAndInvariant: a lone lookup on an idle service goes
// out at once as a batch of its own, run on the lookup's goroutine — no
// hand-off — and leaves no drainer behind; then 16 users x 4 tables
// hammer the service under -race, checking after every lookup that no
// table ever has rows queued without a drainer (a lookup running the
// drain it claimed, or a drain goroutine) alive.
func TestServeIdleFlushAndInvariant(t *testing.T) {
	h := newHarness(t, 4, 64, 16, 12, serve.Config{CacheRows: 32})
	idle := func() {
		t.Helper()
		for _, name := range h.names {
			eventually(t, "the drainer of "+name+" to finish", func() bool {
				q, running := h.svc.CoalescerState(name)
				return q == 0 && !running
			})
		}
	}
	bag := serve.Bag{Table: h.names[0], Idx: []int{5}}
	res, err := h.svc.Lookup(context.Background(), bag)
	if err != nil {
		t.Fatal(err)
	}
	h.check(t, 0, bag, res)
	if st := h.svc.Stats(); st.Batches != 1 || st.RowsFetched != 1 || st.Handoffs != 0 {
		t.Fatalf("lone lookup: %d batches, %d rows, %d hand-offs, want 1, 1 and 0", st.Batches, st.RowsFetched, st.Handoffs)
	}
	idle()

	const users = 16
	var wg sync.WaitGroup
	errc := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + u)))
			for i := 0; i < 20; i++ {
				bags := make([]serve.Bag, len(h.names))
				for ti, name := range h.names {
					bags[ti] = serve.Bag{Table: name, Idx: []int{rng.Intn(64), rng.Intn(64), rng.Intn(8)}}
				}
				out, err := h.svc.LookupBags(context.Background(), bags)
				if err != nil {
					errc <- err
					return
				}
				for ti, name := range h.names {
					want := plainSum(h.plains[ti], bags[ti].Idx, nil, 16, 0xFFFFFFFF)
					for j := range want {
						if out[ti].Values[j] != want[j] {
							errc <- errors.New("value mismatch under the hammer")
							return
						}
					}
					if q, running := h.svc.CoalescerState(name); q > 0 && !running {
						errc <- errors.New("invariant broken: rows queued and no drainer")
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	idle()
}

// TestServeDrainVsSizeTrigger: a forming batch that reaches MaxBatch
// while another is on the wire leaves on its own goroutine instead of
// queueing behind it; the remainder leaves with the drain loop. Then the
// two paths race under -race and every lookup still completes correctly.
func TestServeDrainVsSizeTrigger(t *testing.T) {
	h, gate := newGatedHarness(t, 64, 16, 5, serve.Config{
		MaxBatch:  2,
		CacheRows: -1,
	})
	pinned := h.pin(gate)
	// Three rows behind the pinned batch: {1,2} fill a batch and detach,
	// {3} stays queued for the drain loop.
	bag := serve.Bag{Table: h.names[0], Idx: []int{1, 2, 3}}
	behind := h.lookupAsync(context.Background(), bag)
	gate.AwaitParked(2)
	h.queued(t, 1, 0)
	if st := h.svc.Stats(); st.SizeFlushes != 1 || st.Batches != 2 {
		t.Fatalf("behind a pinned batch: %d size flushes, %d batches, want 1 and 2", st.SizeFlushes, st.Batches)
	}
	gate.Open()
	if o := <-pinned; o.err != nil {
		t.Fatal(o.err)
	}
	o := <-behind
	if o.err != nil {
		t.Fatal(o.err)
	}
	h.check(t, 0, bag, o.res)
	if st := h.svc.Stats(); st.SizeFlushes != 1 || st.WindowFlushes != 2 || st.Batches != 3 {
		t.Fatalf("size/drain flushes %d/%d over %d batches, want 1/2 over 3", st.SizeFlushes, st.WindowFlushes, st.Batches)
	}

	const users = 16
	var wg sync.WaitGroup
	errc := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + u)))
			for i := 0; i < 10; i++ {
				idx := []int{rng.Intn(64), rng.Intn(64), rng.Intn(64)}
				res, err := h.svc.Lookup(context.Background(), serve.Bag{Table: h.names[0], Idx: idx})
				if err != nil {
					errc <- err
					return
				}
				want := plainSum(h.plains[0], idx, nil, 16, 0xFFFFFFFF)
				for j := range want {
					if res.Values[j] != want[j] {
						errc <- errors.New("mismatch under trigger race")
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// A lone trailing lookup leaves with the drain it runs itself, not the
	// size trigger, and does not hang.
	before := h.svc.Stats()
	lone := serve.Bag{Table: h.names[0], Idx: []int{63}}
	res, err := h.svc.Lookup(context.Background(), lone)
	if err != nil {
		t.Fatal(err)
	}
	h.check(t, 0, lone, res)
	after := h.svc.Stats()
	if after.WindowFlushes != before.WindowFlushes+1 || after.SizeFlushes != before.SizeFlushes {
		t.Errorf("lone lookup: drain flushes %d -> %d, size flushes %d -> %d; want +1 and +0",
			before.WindowFlushes, after.WindowFlushes, before.SizeFlushes, after.SizeFlushes)
	}
}

// TestServeCancelMidCoalesce: a user canceling while its rows wait in a
// forming batch abandons only its own wait — the batch still runs under
// the service context, and the other user in the same batch, who also
// joined the canceled user's row fetch, gets a correct result. A batch
// held on the wire keeps both users in one forming batch (what a 30 ms
// window used to).
func TestServeCancelMidCoalesce(t *testing.T) {
	h, gate := newGatedHarness(t, 64, 16, 6, serve.Config{CacheRows: -1})
	pinned := h.pin(gate)
	cctx, cancel := context.WithCancel(context.Background())
	canceled := h.lookupAsync(cctx, serve.Bag{Table: h.names[0], Idx: []int{1}})
	h.queued(t, 1, 0)
	bag := serve.Bag{Table: h.names[0], Idx: []int{1, 2}}
	survivor := h.lookupAsync(context.Background(), bag)
	h.queued(t, 2, 1)
	cancel()
	if o := <-canceled; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("canceled lookup returned %v, want context.Canceled", o.err)
	}
	if q, _ := h.svc.CoalescerState(h.names[0]); q != 2 {
		t.Fatalf("%d rows queued after the cancel, want 2: a waiter leaving must not take its row along", q)
	}
	gate.Open()
	if o := <-pinned; o.err != nil {
		t.Fatal(o.err)
	}
	o := <-survivor
	if o.err != nil {
		t.Fatalf("surviving user in the canceled user's batch failed: %v", o.err)
	}
	h.check(t, 0, bag, o.res)
	if !o.res.Verified {
		t.Fatal("surviving user lost verification")
	}
	if st := h.svc.Stats(); st.Batches != 2 {
		t.Fatalf("%d batches, want 2: both users' rows in one", st.Batches)
	}
}

// TestServeCancelWhileRunningDrain: a lookup that opened a drain runs it
// on its own goroutine, so canceling it cannot abandon the drain: the
// lookup returns only once the drain does, with its context's error, and
// the other user whose row joined the drain gets a correct, verified
// result from it.
func TestServeCancelWhileRunningDrain(t *testing.T) {
	h, gate := newGatedHarness(t, 64, 16, 17, serve.Config{CacheRows: -1})
	gate.Shut()
	cctx, cancel := context.WithCancel(context.Background())
	opener := h.lookupAsync(cctx, serve.Bag{Table: h.names[0], Idx: []int{4}})
	gate.AwaitParked(1)
	bag := serve.Bag{Table: h.names[0], Idx: []int{4}, Weights: []uint64{3}}
	joiner := h.lookupAsync(context.Background(), bag)
	h.queued(t, 0, 1) // the joiner's row joined the fetch on the wire
	cancel()
	select {
	case o := <-opener:
		t.Fatalf("canceled lookup returned (%v) while the drain it runs was still on the wire", o.err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.Open()
	if o := <-opener; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("canceled lookup returned %v, want context.Canceled once its drain returned", o.err)
	}
	o := <-joiner
	if o.err != nil {
		t.Fatalf("the user whose row rode the canceled lookup's drain failed: %v", o.err)
	}
	if !o.res.Verified {
		t.Fatal("the joined row lost verification")
	}
	h.check(t, 0, bag, o.res)
	if st := h.svc.Stats(); st.Batches != 1 || st.RowsFetched != 1 || st.Handoffs != 0 {
		t.Fatalf("%d batches, %d rows, %d hand-offs, want 1, 1 and 0", st.Batches, st.RowsFetched, st.Handoffs)
	}
}

// TestServeValidatesBeforeEnqueue: a lookup whose second bag names a row
// out of range fails before its first bag touches a cache or a
// coalescer — no row is fetched for nobody, and no drain is left
// claimed — and the next lookup is served.
func TestServeValidatesBeforeEnqueue(t *testing.T) {
	h := newHarness(t, 2, 16, 8, 18, serve.Config{})
	ctx := context.Background()
	bags := []serve.Bag{{Table: h.names[0], Idx: []int{1, 2}}, {Table: h.names[1], Idx: []int{3, 16}}}
	if _, err := h.svc.LookupBags(ctx, bags); err == nil {
		t.Fatal("a lookup with an out-of-range row was served")
	}
	if st := h.svc.Stats(); st.RowsFetched != 0 || st.RowRefs != 0 {
		t.Fatalf("the rejected lookup fetched %d rows (%d row references): its first bag was enqueued", st.RowsFetched, st.RowRefs)
	}
	for _, name := range h.names {
		if q, running := h.svc.CoalescerState(name); q != 0 || running {
			t.Fatalf("%s after the rejected lookup: %d rows queued, drainer alive = %v", name, q, running)
		}
	}
	bags[1].Idx[1] = 15
	out, err := h.svc.LookupBags(ctx, bags)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range bags {
		h.check(t, ti, bags[ti], out[ti])
		if out[ti].CacheHits != 0 {
			t.Fatalf("bag %d hit the cache %d times: the rejected lookup's rows were fetched", ti, out[ti].CacheHits)
		}
	}
	if st := h.svc.Stats(); st.RowsFetched != 4 {
		t.Fatalf("%d rows fetched, want the served lookup's 4", st.RowsFetched)
	}
}

// TestServeShedsTyped: with one admission slot and a one-deep queue,
// a burst beyond capacity sheds immediately with ErrOverloaded —
// errors.Is-matchable, no unbounded queueing — while admitted lookups
// complete correctly. The gate holds the admitted lookup's fetch on the
// wire (what a 50 ms window used to), so the envelope stays full until
// the last of the burst has been turned away.
func TestServeShedsTyped(t *testing.T) {
	h, gate := newGatedHarness(t, 64, 16, 7, serve.Config{
		MaxInflight: 1,
		MaxQueue:    1,
		CacheRows:   -1,
	})
	gate.Shut()
	const burst = 6
	errs := make(chan error, burst)
	for u := 0; u < burst; u++ {
		go func(u int) {
			_, err := h.svc.Lookup(context.Background(), serve.Bag{Table: h.names[0], Idx: []int{u % 64}})
			errs <- err
		}(u)
	}
	// One lookup holds the slot with its fetch parked, one waits in the
	// queue; the other four can only have been shed.
	for i := 0; i < burst-2; i++ {
		if err := <-errs; !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("lookup returned %v with the envelope full, want ErrOverloaded", err)
		}
	}
	if st := h.svc.Stats(); st.Shed != burst-2 {
		t.Fatalf("Stats.Shed = %d, want %d", st.Shed, burst-2)
	}
	gate.Open()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted lookup failed: %v", err)
		}
	}
}

// TestServeCacheNeverServesPreRotationRows is the staleness regression:
// a hot row cached before Reencrypt must never be served after it — the
// epoch bump invalidates the entry and the next lookup returns the
// post-rotation plaintext.
func TestServeCacheNeverServesPreRotationRows(t *testing.T) {
	h := newHarness(t, 1, 16, 8, 8, serve.Config{})
	ctx := context.Background()
	bag := serve.Bag{Table: h.names[0], Idx: []int{3, 7}}

	// Warm the cache and confirm it hits.
	if _, err := h.svc.Lookup(ctx, bag); err != nil {
		t.Fatal(err)
	}
	res, err := h.svc.Lookup(ctx, bag)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 2 {
		t.Fatalf("warm lookup hit %d of 2 rows", res.CacheHits)
	}
	h.check(t, 0, bag, res)

	// Rotate to entirely new plaintext.
	rng := rand.New(rand.NewSource(88))
	fresh := testRows(rng, 16, 8, 1<<20)
	oldEpoch := h.tabs[0].Epoch()
	if err := h.tabs[0].Reencrypt(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	if e := h.tabs[0].Epoch(); e != oldEpoch+1 {
		t.Fatalf("epoch %d after Reencrypt, want %d", e, oldEpoch+1)
	}
	h.plains[0] = fresh

	res, err = h.svc.Lookup(ctx, bag)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Fatalf("post-rotation lookup served %d rows from the pre-rotation cache", res.CacheHits)
	}
	if !res.Verified {
		t.Fatal("post-rotation lookup unverified")
	}
	h.check(t, 0, bag, res) // fresh plaintext, not the old rows
	if st := h.svc.Stats(); st.CacheStale != 2 {
		t.Errorf("epoch flip dropped %d stale entries, want the bag's 2", st.CacheStale)
	}

	// And the rotated rows re-cache under the new epoch.
	res, err = h.svc.Lookup(ctx, bag)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 2 {
		t.Fatalf("re-warmed lookup hit %d of 2 rows", res.CacheHits)
	}
	h.check(t, 0, bag, res)
}

// TestServeValidation: unknown tables, bad rows, and mismatched weights
// are rejected up front with typed/diagnosable errors.
func TestServeValidation(t *testing.T) {
	h := newHarness(t, 1, 16, 8, 9, serve.Config{})
	ctx := context.Background()
	if _, err := h.svc.Lookup(ctx, serve.Bag{Table: "nope", Idx: []int{0}}); !errors.Is(err, serve.ErrUnknownTable) {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := h.svc.Lookup(ctx, serve.Bag{Table: h.names[0], Idx: []int{16}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := h.svc.Lookup(ctx, serve.Bag{Table: h.names[0], Idx: []int{1, 2}, Weights: []uint64{1}}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	if err := h.svc.AddTable(h.names[0], h.tabs[0]); err == nil {
		t.Fatal("duplicate AddTable accepted")
	}
}

// TestServeClose: Close with a batch on the wire and rows queued behind
// it wakes every waiter and returns once every drainer is done — without
// a flush, because queued rows always have a drainer. Subsequent lookups
// fail ErrClosed, and Close is idempotent.
func TestServeClose(t *testing.T) {
	h, gate := newGatedHarness(t, 16, 8, 10, serve.Config{CacheRows: -1})
	waiters := []<-chan lookupOut{h.pin(gate)}
	for _, idx := range [][]int{{1}, {2, 3}, {1, 4}} {
		waiters = append(waiters, h.lookupAsync(context.Background(), serve.Bag{Table: h.names[0], Idx: idx}))
	}
	h.queued(t, 4, 1)
	h.svc.Close() // the gate is still shut: only the canceled service context frees the fetch
	for i, c := range waiters {
		if o := <-c; !errors.Is(o.err, context.Canceled) {
			t.Fatalf("waiter %d across Close: %v, want the service context's cancellation", i, o.err)
		}
	}
	if q, running := h.svc.CoalescerState(h.names[0]); q != 0 || running {
		t.Fatalf("after Close: %d rows queued, drainer alive = %v", q, running)
	}
	if _, err := h.svc.Lookup(context.Background(), serve.Bag{Table: h.names[0], Idx: []int{1}}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-Close lookup: %v, want ErrClosed", err)
	}
	h.svc.Close() // idempotent
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestServeAllocBudgets pins the allocation diet that pays for the
// smaller batches an idle table now sends. Warm: a 4-bag lookup served
// from the cache allocates its result slice and four value vectors and
// nothing else — in particular not its list of claimed drains. Cold: a
// 4-bag, 32-row lookup on LocalBackend with the cache off runs the four
// drains it claims on its own goroutine, each one facade batch that
// allocates only its answers (TestBatchLocalAllocBudget in the root
// package); it reads 65, where drain goroutines and per-request batch
// scratch read 149 and the window-timer coalescer 262 (warm: 5 against
// 10). Missing: the cold lookup again with the cache on, every row a
// miss that the drain then puts, evicting; it is held to the cache-off
// budget because a put copies into a reserved slot and allocates
// nothing.
func TestServeAllocBudgets(t *testing.T) {
	const warmBudget, coldBudget = 5, 72
	lookup := func(h *harness) func() {
		bags := make([]serve.Bag, len(h.names))
		for ti, name := range h.names {
			bags[ti] = serve.Bag{Table: name, Idx: []int{1, 9, 17, 25, 33, 41, 49, 57}}
		}
		return func() {
			if _, err := h.svc.LookupBags(context.Background(), bags); err != nil {
				t.Fatal(err)
			}
		}
	}
	// missing walks each table in steps of 8 rows, so no row repeats
	// within the 2048/8 calls AllocsPerRun makes.
	const missRows = 2048
	missH := newHarness(t, 4, missRows, 16, 13, serve.Config{CacheRows: 32})
	missing := func() func() {
		bags := make([]serve.Bag, len(missH.names))
		for ti, name := range missH.names {
			bags[ti] = serve.Bag{Table: name, Idx: make([]int, 8)}
		}
		next := 0
		return func() {
			for _, bag := range bags {
				for k := range bag.Idx {
					bag.Idx[k] = (next + k) % missRows
				}
			}
			next += len(bags[0].Idx)
			res, err := missH.svc.LookupBags(context.Background(), bags)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.CacheHits != 0 {
					t.Fatalf("a fresh row hit the cache: %+v", r)
				}
			}
		}
	}()
	warm := lookup(newHarness(t, 4, 64, 16, 13, serve.Config{}))
	warm()
	if n := testing.AllocsPerRun(200, warm); n > warmBudget {
		t.Errorf("warm-cache 4-bag lookup: %.1f allocations, budget %d", n, warmBudget)
	}
	cold := lookup(newHarness(t, 4, 64, 16, 13, serve.Config{CacheRows: -1}))
	cold()
	n := testing.AllocsPerRun(200, cold)
	if raceEnabled {
		return // the cold path's pad arenas are pooled: see race_test.go
	}
	t.Logf("cold 4-bag lookup: %.1f allocations", n)
	if n > coldBudget {
		t.Errorf("cold 4-bag lookup: %.1f allocations, budget %d", n, coldBudget)
	}
	missing()
	n = testing.AllocsPerRun(200, missing)
	t.Logf("cache-missing 4-bag lookup: %.1f allocations", n)
	if n > coldBudget {
		t.Errorf("cache-missing 4-bag lookup: %.1f allocations, budget %d (the cache-off budget)", n, coldBudget)
	}
	if st := missH.svc.Stats(); st.CacheEvicts == 0 {
		t.Error("the missing lookups evicted nothing: puts never reached a full set")
	}
}

// TestServeAddTableDuringLookups: registering tables while lookups run
// races nothing. Lookups on a registered table stay correct; lookups on
// a table being added see either ErrUnknownTable or a correct result.
func TestServeAddTableDuringLookups(t *testing.T) {
	const rows, cols = 32, 8
	h := newHarness(t, 1, rows, cols, 14, serve.Config{})
	eng, err := secndp.New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	var late []*secndp.Table
	var lateNames []string
	var latePlain [][][]uint64
	for i := 0; i < 6; i++ {
		plain := testRows(rng, rows, cols, 1<<20)
		name := "late" + string(rune('0'+i))
		tab, err := eng.CreateTable(context.Background(), secndp.LocalBackend(secndp.NewMemory()),
			secndp.TableSpec{Name: name, Rows: rows, Cols: cols}, plain)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tab.Close)
		late = append(late, tab)
		lateNames = append(lateNames, name)
		latePlain = append(latePlain, plain)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				li := (i + g) % len(late)
				for _, c := range []struct {
					plain [][]uint64
					bag   serve.Bag
				}{
					{h.plains[0], serve.Bag{Table: h.names[0], Idx: []int{i % rows, (i + g) % rows}}},
					{latePlain[li], serve.Bag{Table: lateNames[li], Idx: []int{i % rows}}},
				} {
					res, err := h.svc.Lookup(context.Background(), c.bag)
					if errors.Is(err, serve.ErrUnknownTable) && c.bag.Table != h.names[0] {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if want := plainSum(c.plain, c.bag.Idx, nil, cols, 0xFFFFFFFF); res.Values[0] != want[0] {
						t.Errorf("table %s: %d != %d", c.bag.Table, res.Values[0], want[0])
						return
					}
				}
			}
		}(g)
	}
	eventually(t, "lookups to run before the first AddTable", func() bool { return h.svc.Stats().Lookups >= 8 })
	for i, tab := range late {
		if err := h.svc.AddTable(lateNames[i], tab); err != nil {
			t.Fatal(err)
		}
		_ = h.svc.Tables()
	}
	close(stop)
	wg.Wait()
	if n := len(h.svc.Tables()); n != 1+len(late) {
		t.Fatalf("%d tables registered, want %d", n, 1+len(late))
	}
}

// BenchmarkLookupBagsWarm times a 4-bag, 32-row lookup served entirely
// from the row cache: admission, the cache's hit path and the fold.
func BenchmarkLookupBagsWarm(b *testing.B) {
	h := newHarness(b, 4, 64, 32, 16, serve.Config{})
	bags := make([]serve.Bag, len(h.names))
	for ti, name := range h.names {
		bags[ti] = serve.Bag{Table: name, Idx: []int{1, 9, 17, 25, 33, 41, 49, 57}}
	}
	ctx := context.Background()
	if _, err := h.svc.LookupBags(ctx, bags); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.svc.LookupBags(ctx, bags); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeOverflowedBagIsNotVerified is ROADMAP 1a's reproduction: an
// 8x16 32-bit table whose elements are all 2^31, bag {0,1} at unit
// weights. The sum is exactly 2^32: Table.Query rejects it, and
// serve.Lookup — which returned Verified: true and sixteen zeros — must
// too, cold and again with both rows in the cache. One row alone is fine.
func TestServeOverflowedBagIsNotVerified(t *testing.T) {
	ctx := context.Background()
	eng, err := secndp.New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([][]uint64, 8)
	for i := range plain {
		plain[i] = make([]uint64, 16)
		for j := range plain[i] {
			plain[i][j] = 1 << 31
		}
	}
	tab, err := eng.CreateTable(ctx, secndp.LocalBackend(secndp.NewMemory()), secndp.TableSpec{Rows: 8, Cols: 16}, plain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tab.Close)
	svc := serve.New(serve.Config{})
	t.Cleanup(svc.Close)
	if err := svc.AddTable("emb", tab); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Query(ctx, secndp.Request{Idx: []int{0, 1}, Weights: []uint64{1, 1}}); !errors.Is(err, secndp.ErrVerification) {
		t.Fatalf("Table.Query over the overflowing bag: %v, want ErrVerification", err)
	}
	for _, pass := range []string{"cold", "cached"} {
		res, err := svc.Lookup(ctx, serve.Bag{Table: "emb", Idx: []int{0, 1}})
		if !errors.Is(err, secndp.ErrVerification) {
			t.Fatalf("%s serve.Lookup over the overflowing bag: %+v, %v; want ErrVerification", pass, res, err)
		}
	}
	res, err := svc.Lookup(ctx, serve.Bag{Table: "emb", Idx: []int{0}})
	if err != nil || !res.Verified || res.Values[0] != 1<<31 || res.CacheHits != 1 {
		t.Fatalf("single cached row: %+v, %v", res, err)
	}
}

// TestServeOverflowMatchesQuery: a bag whose integer sum reaches 2^we
// must not come back Verified — serve folds unit-weight rows TEE-side,
// so the weighted sum itself never passes under a MAC, and the fold has
// to reject what a direct query's checksum would. Random bags, about
// half of them overflowing, get the same outcome — the same values, or
// an error matching ErrVerification — from serve.Lookup, Table.Query and
// Table.QueryBatch, on LocalBackend and on a 2-shard loopback cluster,
// cold and from the row cache.
func TestServeOverflowMatchesQuery(t *testing.T) {
	const rows, cols = 32, 16
	shards := make([]secndp.ShardSpec, 2)
	for i := range shards {
		srv := secndp.NewServer(secndp.NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		shards[i] = secndp.ShardSpec{Addr: addr}
	}
	backends := map[string]func() secndp.Backend{
		"local":   func() secndp.Backend { return secndp.LocalBackend(secndp.NewMemory()) },
		"cluster": func() secndp.Backend { return secndp.ClusterBackend(shards...) },
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			eng, err := secndp.New(testKey, secndp.WithTransport(secndp.TransportConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			// Rows 0 and 1 are the issue's reproduction (every element
			// 2^31, so {0,1} sums to exactly 2^32); the rest are random
			// 32-bit values, large enough that a few rows overflow.
			rng := rand.New(rand.NewSource(14))
			plain := testRows(rng, rows, cols, 1<<32)
			for j := 0; j < cols; j++ {
				plain[0][j], plain[1][j] = 1<<31, 1<<31
			}
			tab, err := eng.CreateTable(ctx, backend(), secndp.TableSpec{Rows: rows, Cols: cols}, plain)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tab.Close)
			svc := serve.New(serve.Config{})
			t.Cleanup(svc.Close)
			if err := svc.AddTable("emb", tab); err != nil {
				t.Fatal(err)
			}

			// outcome is nil values for a verification reject.
			outcome := func(who string, vals []uint64, verified bool, err error) []uint64 {
				t.Helper()
				switch {
				case err == nil && verified:
					return vals
				case errors.Is(err, secndp.ErrVerification):
					return nil
				}
				t.Fatalf("%s: verified=%v err=%v, want a verified result or ErrVerification", who, verified, err)
				return nil
			}
			var overflowed, clean int
			for trial := 0; trial < 200; trial++ {
				var idx []int
				var w []uint64
				switch {
				case trial == 0:
					idx = []int{0, 1} // unit weights, nil Weights
				default:
					n := 1 + rng.Intn(4)
					idx, w = make([]int, n), make([]uint64, n)
					for k := range idx {
						idx[k] = rng.Intn(rows)
						w[k] = 1
						if rng.Intn(3) == 0 {
							w[k] = rng.Uint64() >> uint(rng.Intn(64)) // up to 64-bit weights: high product words
						}
					}
					if rng.Intn(4) == 0 {
						idx[0], w[0] = 2+rng.Intn(rows-2), 0 // a zero weight contributes nothing
					}
				}
				req := secndp.Request{Idx: idx, Weights: w}
				if w == nil {
					req.Weights = []uint64{1, 1} // serve reads nil as all ones; the facade wants them spelled out
				}
				qr, qerr := tab.Query(ctx, req)
				want := outcome("Table.Query", qr.Values, qr.Verified, qerr)
				br, berr := tab.QueryBatch(ctx, []secndp.Request{req})
				gotBatch := outcome("Table.QueryBatch", br[0].Values, br[0].Verified, berr)
				for pass, label := range []string{"serve.Lookup cold", "serve.Lookup cached"} {
					sr, serr := svc.Lookup(ctx, serve.Bag{Table: "emb", Idx: idx, Weights: w})
					got := outcome(label, sr.Values, sr.Verified, serr)
					if (got == nil) != (want == nil) || (gotBatch == nil) != (want == nil) {
						t.Fatalf("trial %d idx %v w %v: rejected by Query=%v QueryBatch=%v %s=%v",
							trial, idx, w, want == nil, gotBatch == nil, label, got == nil)
					}
					for j := range want {
						if got[j] != want[j] || gotBatch[j] != want[j] {
							t.Fatalf("trial %d col %d: Query %d, QueryBatch %d, %s %d", trial, j, want[j], gotBatch[j], label, got[j])
						}
					}
					if pass == 1 && serr == nil && sr.CacheHits != len(idx) {
						t.Fatalf("trial %d: second lookup hit %d of %d rows", trial, sr.CacheHits, len(idx))
					}
				}
				if want == nil {
					overflowed++
				} else {
					clean++
				}
			}
			if overflowed < 20 || clean < 20 {
				t.Fatalf("%d overflowing and %d clean bags: the draw no longer covers both", overflowed, clean)
			}
		})
	}
}
