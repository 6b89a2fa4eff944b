package secndp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The rotation suite pins Table.Reencrypt and the serving-epoch
// contract: rotation rewrites the untrusted memory under a fresh
// version and bumps Epoch so derived caches (the serving layer's hot-row
// cache) invalidate.

func TestReencryptSameContents(t *testing.T) {
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(300))
	rows := testRows(rng, 32, 16, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 32, Cols: 16}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	req := Request{Idx: []int{1, 7, 30}, Weights: []uint64{2, 3, 5}}
	want := plainSum(rows, req.Idx, req.Weights, 16, 0xFFFFFFFF)
	if _, err := tab.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	v0, e0 := tab.Version(), tab.Epoch()
	if e0 != 1 {
		t.Fatalf("fresh table epoch %d, want 1", e0)
	}

	if err := tab.Reencrypt(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if v := tab.Version(); v <= v0 {
		t.Fatalf("version %d after Reencrypt, want > %d", v, v0)
	}
	if e := tab.Epoch(); e != e0+1 {
		t.Fatalf("epoch %d after Reencrypt, want %d", e, e0+1)
	}
	res, err := tab.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("post-rotation query: %v", err)
	}
	if !res.Verified {
		t.Fatal("post-rotation query unverified")
	}
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("col %d: %d != %d after same-contents rotation", j, res.Values[j], want[j])
		}
	}
}

func TestReencryptNewContents(t *testing.T) {
	eng, _ := New(testKey)
	mem := NewMemory()
	rng := rand.New(rand.NewSource(310))
	rows := testRows(rng, 16, 8, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 16, Cols: 8}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	fresh := testRows(rng, 16, 8, 1<<20)
	if err := tab.Reencrypt(context.Background(), fresh); err != nil {
		t.Fatal(err)
	}
	req := Request{Idx: []int{0, 5, 15}, Weights: []uint64{1, 4, 2}}
	res, err := tab.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("rotated-contents query unverified")
	}
	want := plainSum(fresh, req.Idx, req.Weights, 8, 0xFFFFFFFF)
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("col %d: %d != %d (old contents leaked through rotation?)", j, res.Values[j], want[j])
		}
	}

	// Misshapen replacement contents are rejected without touching state.
	e0 := tab.Epoch()
	if err := tab.Reencrypt(context.Background(), fresh[:4]); err == nil {
		t.Fatal("short newRows accepted")
	}
	if tab.Epoch() != e0 {
		t.Fatal("failed rotation bumped the epoch")
	}
}

// TestReencryptMalformedRowLeavesTableServing: replacement contents with
// one short row in the middle are rejected before any byte is rewritten,
// so the table keeps serving its current contents, verified, and rotates
// normally afterwards.
func TestReencryptMalformedRowLeavesTableServing(t *testing.T) {
	ctx := context.Background()
	eng, _ := New(testKey)
	mem := NewMemory()
	rng := rand.New(rand.NewSource(315))
	rows := testRows(rng, 64, 8, 1<<20)
	tab, err := eng.CreateTable(ctx, LocalBackend(mem), TableSpec{Rows: 64, Cols: 8}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	fresh := testRows(rng, 64, 8, 1<<20)
	short := append([][]uint64(nil), fresh...)
	short[10] = short[10][:7]
	v0, e0 := tab.Version(), tab.Epoch()
	if err := tab.Reencrypt(ctx, short); err == nil {
		t.Fatal("a 7-element row accepted in an 8-column table")
	}
	if tab.Version() != v0 || tab.Epoch() != e0 {
		t.Fatalf("rejected rotation moved version %d→%d, epoch %d→%d", v0, tab.Version(), e0, tab.Epoch())
	}
	check := func(want [][]uint64) {
		t.Helper()
		for _, i := range []int{0, 9, 10, 11, 63} {
			res, err := tab.Query(ctx, Request{Idx: []int{i}, Weights: []uint64{1}})
			if err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			if !res.Verified {
				t.Fatalf("row %d unverified", i)
			}
			for j, v := range want[i] {
				if res.Values[j] != v {
					t.Fatalf("row %d col %d: %d, want %d", i, j, res.Values[j], v)
				}
			}
		}
	}
	check(rows)
	if err := tab.Reencrypt(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	check(fresh)
}

// TestReencryptConcurrentCreateAndQuery is serve_rotate's shape under the
// race detector: four tables share one memory, each large enough for the
// encoder to split across two workers; one goroutine rotates them to new
// contents in turn while another creates and drops further tables in the
// same memory, and two readers query throughout. A query may fail
// verification while its table is being rewritten (Reencrypt's documented
// window) but every answer returned must be verified and equal the
// plaintext of a content epoch the table held during the query.
func TestReencryptConcurrentCreateAndQuery(t *testing.T) {
	const (
		tables, rows, cols = 4, 1024, 64 // 256 KiB a table: four chunks, two shards
		rotations          = 16
		region             = 1 << 20
	)
	ctx := context.Background()
	eng, err := New(testKey, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(350))
	base := make([][][]uint64, tables+2)
	for i := range base {
		base[i] = testRows(rng, rows, cols, 1<<20)
	}
	// Table i's contents at epoch e: its base rows plus e.
	contents := func(i int, e uint64) [][]uint64 {
		out := make([][]uint64, rows)
		for r := range out {
			out[r] = make([]uint64, cols)
			for j := range out[r] {
				out[r][j] = base[i][r][j] + e
			}
		}
		return out
	}
	// The plaintext answer to req on table i at epoch e.
	oracle := func(i int, e uint64, req Request) []uint64 {
		sum := plainSum(base[i], req.Idx, req.Weights, cols, 0xFFFFFFFF)
		for _, w := range req.Weights {
			for j := range sum {
				sum[j] = (sum[j] + w*e) & 0xFFFFFFFF
			}
		}
		return sum
	}
	spec := func(i int) TableSpec {
		return TableSpec{Rows: rows, Cols: cols, Base: uint64(i+1) * region}
	}

	tabs := make([]*Table, tables)
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := eng.CreateTable(ctx, LocalBackend(mem), spec(i), contents(i, 0))
			if err != nil {
				t.Error(err)
				return
			}
			tabs[i] = tab
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	defer func() {
		for _, tab := range tabs {
			tab.Close()
		}
	}()

	// started[i] is the newest epoch a rotation of table i has begun,
	// done[i] the newest it has published.
	var started, done [tables]atomic.Uint64
	stop := make(chan struct{})
	var answers, rejected atomic.Uint64
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(360 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(tables)
				req := Request{Idx: make([]int, 8), Weights: make([]uint64, 8)}
				for k := range req.Idx {
					req.Idx[k], req.Weights[k] = rng.Intn(rows), uint64(1+rng.Intn(8))
				}
				lo := done[i].Load()
				res, err := tabs[i].Query(ctx, req)
				hi := started[i].Load()
				if err != nil {
					if !errors.Is(err, ErrVerification) || hi == lo {
						t.Errorf("table %d, epochs %d..%d: %v", i, lo, hi, err)
						return
					}
					rejected.Add(1)
					continue
				}
				if !res.Verified {
					t.Errorf("table %d: unverified answer", i)
					return
				}
				match := false
				for e := lo; e <= hi && !match; e++ {
					match = slices.Equal(res.Values, oracle(i, e, req))
				}
				if !match {
					t.Errorf("table %d: verified answer matches no epoch in %d..%d", i, lo, hi)
					return
				}
				answers.Add(1)
			}
		}()
	}

	var writers sync.WaitGroup
	writers.Add(2)
	go func() { // the rotator
		defer writers.Done()
		for r := 0; r < rotations; r++ {
			i := r % tables
			e := started[i].Add(1)
			if err := tabs[i].Reencrypt(ctx, contents(i, e)); err != nil {
				t.Errorf("rotating table %d to epoch %d: %v", i, e, err)
				return
			}
			done[i].Store(e)
		}
	}()
	go func() { // tables created and dropped beside the live ones
		defer writers.Done()
		for i := tables; i < tables+2; i++ {
			tab, err := eng.CreateTable(ctx, LocalBackend(mem), spec(i), contents(i, 0))
			if err != nil {
				t.Error(err)
				return
			}
			req := Request{Idx: []int{0, rows - 1}, Weights: []uint64{1, 2}}
			res, err := tab.Query(ctx, req)
			if err != nil || !res.Verified || !slices.Equal(res.Values, oracle(i, 0, req)) {
				t.Errorf("table %d created beside the rotation: %v", i, err)
			}
			tab.Close()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if answers.Load() == 0 {
		t.Error("no query answered")
	}
	t.Logf("%d verified answers, %d rejected inside a rotation window", answers.Load(), rejected.Load())
}

func TestReencryptDetectsTamper(t *testing.T) {
	// nil-newRows rotation decrypts and verifies before re-encrypting, so
	// corrupted ciphertext cannot be laundered into a fresh authenticated
	// table.
	eng, _ := New(testKey)
	mem := NewMemory()
	rng := rand.New(rand.NewSource(320))
	rows := testRows(rng, 8, 8, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 8, Cols: 8}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	mem.FlipBit(tab.Geometry().Layout.RowAddr(3)+1, 4)
	if err := tab.Reencrypt(context.Background(), nil); err == nil {
		t.Fatal("rotation laundered tampered ciphertext")
	}
}

func TestReencryptUnsupportedBackends(t *testing.T) {
	specs, _ := testServers(t, 2)
	eng, err := New(testKey, WithTransport(fastTransport()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(330))
	rows := testRows(rng, 16, 8, 1<<20)
	ctab, err := eng.CreateTable(context.Background(), ClusterBackend(specs...),
		TableSpec{Rows: 16, Cols: 8}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer ctab.Close()
	if err := ctab.Reencrypt(context.Background(), nil); err == nil {
		t.Fatal("cluster Reencrypt accepted")
	}
}

// TestReshardBumpsEpoch: topology flips count as rotations for derived
// caches — the serving layer keys its hot-row cache on Epoch, so a
// Reshard must advance it exactly like a Reencrypt does.
func TestReshardBumpsEpoch(t *testing.T) {
	specs, _ := testServers(t, 4)
	eng, err := New(testKey, WithTransport(fastTransport()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(340))
	rows := testRows(rng, 32, 8, 1<<20)
	tab, err := eng.CreateTable(context.Background(), ClusterBackend(specs[:2]...),
		TableSpec{Rows: 32, Cols: 8}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	e0 := tab.Epoch()
	if e0 != 1 {
		t.Fatalf("fresh cluster table epoch %d, want 1", e0)
	}
	if err := tab.Reshard(context.Background(), ClusterBackend(specs...)); err != nil {
		t.Fatal(err)
	}
	if e := tab.Epoch(); e != e0+1 {
		t.Fatalf("epoch %d after Reshard, want %d", e, e0+1)
	}
}
