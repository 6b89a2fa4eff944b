package secndp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
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
		for j := 0; j < m; j++ {
			acc[j] = (acc[j] + w[k]*rows[i][j]) & mask
		}
	}
	return acc
}

func TestFacadeQueryVerified(t *testing.T) {
	eng, err := New(testKey, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(1))
	rows := testRows(rng, 64, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "emb", Rows: 64, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for trial := 0; trial < 10; trial++ {
		pf := 1 + rng.Intn(16)
		idx := make([]int, pf)
		w := make([]uint64, pf)
		for k := range idx {
			idx[k] = rng.Intn(64)
			w[k] = 1 + rng.Uint64()%8
		}
		res, err := tab.Query(context.Background(), Request{Idx: idx, Weights: w})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Verified {
			t.Fatal("tagged table query not verified by default")
		}
		want := plainSum(rows, idx, w, 32, 0xFFFFFFFF)
		for j := range want {
			if res.Values[j] != want[j] {
				t.Fatalf("trial %d col %d: %d != %d", trial, j, res.Values[j], want[j])
			}
		}
	}
}

func TestFacadeRejectsTamper(t *testing.T) {
	eng, _ := New(testKey)
	mem := NewMemory()
	rng := rand.New(rand.NewSource(2))
	rows := testRows(rng, 8, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 8, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Idx: []int{0, 3}, Weights: []uint64{1, 2}}
	if _, err := tab.Query(context.Background(), req); err != nil {
		t.Fatalf("pre-tamper: %v", err)
	}
	geo := tab.Geometry()
	mem.FlipBit(geo.Layout.RowAddr(3)+2, 5)
	if _, err := tab.Query(context.Background(), req); !errors.Is(err, ErrVerification) {
		t.Errorf("tampered ciphertext not rejected: %v", err)
	}
	// Tampered tag too.
	mem.FlipBit(geo.Layout.RowAddr(3)+2, 5) // restore data
	mem.FlipBit(geo.Layout.TagAddr(0), 7)
	if _, err := tab.Query(context.Background(), req); !errors.Is(err, ErrVerification) {
		t.Errorf("tampered tag not rejected: %v", err)
	}
	// The same rejection surfaces through the batch API.
	_, err = tab.QueryBatch(context.Background(), []Request{req, {Idx: []int{4}, Weights: []uint64{1}}})
	if !errors.Is(err, ErrVerification) {
		t.Errorf("batch did not surface verification failure: %v", err)
	}
}

func TestFacadeBatchMatchesPlaintext(t *testing.T) {
	eng, _ := New(testKey, WithParallelism(4))
	mem := NewMemory()
	rng := rand.New(rand.NewSource(3))
	rows := testRows(rng, 32, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 32, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 20)
	for i := range reqs {
		pf := 1 + rng.Intn(8)
		idx := make([]int, pf)
		w := make([]uint64, pf)
		for k := range idx {
			idx[k] = rng.Intn(8) // hot subset exercises cross-request dedup
			w[k] = 1 + rng.Uint64()%4
		}
		reqs[i] = Request{Idx: idx, Weights: w}
	}
	out, err := tab.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if !res.Verified {
			t.Fatalf("request %d not verified", i)
		}
		want := plainSum(rows, reqs[i].Idx, reqs[i].Weights, 32, 0xFFFFFFFF)
		for j := range want {
			if res.Values[j] != want[j] {
				t.Fatalf("request %d col %d mismatch", i, j)
			}
		}
	}
}

func TestFacadeElementQuery(t *testing.T) {
	eng, _ := New(testKey)
	mem := NewMemory()
	rng := rand.New(rand.NewSource(4))
	rows := testRows(rng, 16, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 16, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tab.Query(context.Background(), Request{
		Idx: []int{1, 3}, Cols: []int{5, 9}, Weights: []uint64{2, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Error("element-indexed result claimed to be verified")
	}
	want := (2*rows[1][5] + 7*rows[3][9]) & 0xFFFFFFFF
	if len(res.Values) != 1 || res.Values[0] != want {
		t.Errorf("element query = %v, want [%d]", res.Values, want)
	}
}

func TestFacadeVerificationModes(t *testing.T) {
	mem := NewMemory()
	rng := rand.New(rand.NewSource(5))
	rows := testRows(rng, 8, 32, 1<<20)
	req := Request{Idx: []int{0, 1}, Weights: []uint64{1, 1}}

	// Auto mode on a tag-less table: quietly unverified.
	auto, _ := New(testKey)
	tab, err := auto.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "a", Rows: 8, Cols: 32, Tags: TagsNone}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tab.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Error("tag-less table result claimed verified")
	}

	// Strict mode rejects tag-less tables with ErrNoTags.
	strict, _ := New(testKey, WithVerification(true))
	stab, err := strict.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "b", Rows: 8, Cols: 32, Tags: TagsNone, Base: 0x100000}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stab.Query(context.Background(), req); !errors.Is(err, ErrNoTags) {
		t.Errorf("strict engine on tag-less table: got %v, want ErrNoTags", err)
	}
	// ... and refuses unverifiable element queries.
	if _, err := stab.Query(context.Background(), Request{Idx: []int{0}, Cols: []int{0}, Weights: []uint64{1}}); !errors.Is(err, ErrNoTags) {
		t.Errorf("strict engine element query: got %v, want ErrNoTags", err)
	}

	// Off mode never verifies, even with tags present.
	off, _ := New(testKey, WithVerification(false))
	otab, err := off.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "c", Rows: 8, Cols: 32, Base: 0x200000}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err = otab.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Error("WithVerification(false) still verified")
	}

	// Per-request opt-out on a tagged table.
	vtab, err := auto.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "d", Rows: 8, Cols: 32, Base: 0x300000}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err = vtab.Query(context.Background(), Request{Idx: req.Idx, Weights: req.Weights, Unverified: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Error("Unverified request was verified anyway")
	}
}

func TestFacadeErrors(t *testing.T) {
	eng, _ := New(testKey)
	mem := NewMemory()
	rows := testRows(rand.New(rand.NewSource(6)), 4, 32, 1<<20)

	// Bad key size.
	if _, err := New([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
	// Bad geometry: row not a multiple of the cipher block.
	if _, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 4, Cols: 3}, rows); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("bad spec: got %v, want ErrBadGeometry", err)
	}
	// Out-of-range row index.
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 4, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Query(context.Background(), Request{Idx: []int{4}, Weights: []uint64{1}}); !errors.Is(err, ErrIndexRange) {
		t.Errorf("out-of-range query: got %v, want ErrIndexRange", err)
	}
	// Duplicate table name: the version manager enforces one live version
	// per region.
	if _, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "dup", Rows: 4, Cols: 32, Base: 0x400000}, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "dup", Rows: 4, Cols: 32, Base: 0x500000}, rows); err == nil {
		t.Error("duplicate live table name accepted")
	}
}

func TestFacadeRemote(t *testing.T) {
	mem := NewMemory()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialNDP(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	eng, _ := New(testKey, WithParallelism(4))
	rng := rand.New(rand.NewSource(7))
	rows := testRows(rng, 16, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), RemoteBackend(client), TableSpec{Rows: 16, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Idx: []int{2, 7, 11}, Weights: []uint64{1, 2, 3}}
	res, err := tab.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("remote facade query failed: %v", err)
	}
	if !res.Verified {
		t.Error("remote query not verified")
	}
	want := plainSum(rows, req.Idx, req.Weights, 32, 0xFFFFFFFF)
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("col %d: %d != %d", j, res.Values[j], want[j])
		}
	}
	// The server operator corrupts its own memory: caught.
	mem.FlipBit(tab.Geometry().Layout.RowAddr(7)+1, 3)
	if _, err := tab.Query(context.Background(), req); !errors.Is(err, ErrVerification) {
		t.Errorf("remote tamper not rejected: %v", err)
	}
}

// TestFacadeHotRowsLocalAndRemote: one engine provisions the same rows in
// its own memory and over a reliable remote transport, and a hot-row
// workload repeated round after round returns the plaintext sum on both,
// verified and unverified. Pads are regenerated on every query, so a row
// asked for again must decrypt exactly as it did the first time.
func TestFacadeHotRowsLocalAndRemote(t *testing.T) {
	srvMem := NewMemory()
	srv := NewServer(srvMem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := DialReliableNDP(context.Background(), addr, fastTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	eng, err := New(testKey, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(180))
	rows := testRows(rng, 32, 16, 1<<20)
	spec := TableSpec{Rows: 32, Cols: 16}
	backends := map[string]Backend{"local": LocalBackend(NewMemory()), "remote": RemoteBackend(rc)}
	reqs := make([]Request, 6)
	for i := range reqs {
		n := 1 + rng.Intn(10)
		reqs[i] = Request{Idx: make([]int, n), Weights: make([]uint64, n)}
		for k := 0; k < n; k++ {
			reqs[i].Idx[k] = rng.Intn(4) // four hot rows, reused across requests
			reqs[i].Weights[k] = 1 + rng.Uint64()%8
		}
	}
	for name, backend := range backends {
		tab, err := eng.CreateTable(context.Background(), backend, spec, rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer tab.Close()
		for round := 0; round < 3; round++ {
			for i, req := range reqs {
				want := plainSum(rows, req.Idx, req.Weights, 16, 0xFFFFFFFF)
				for _, unverified := range []bool{false, true} {
					req.Unverified = unverified
					res, err := tab.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("%s round %d request %d unverified=%v: %v", name, round, i, unverified, err)
					}
					for j := range want {
						if res.Values[j] != want[j] {
							t.Fatalf("%s round %d request %d unverified=%v col %d: %d != %d",
								name, round, i, unverified, j, res.Values[j], want[j])
						}
					}
				}
			}
		}
	}
}

func TestFacadeCloseReleasesName(t *testing.T) {
	eng, _ := New(testKey)
	mem := NewMemory()
	rows := testRows(rand.New(rand.NewSource(8)), 4, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "tmp", Rows: 4, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	tab.Close()
	if _, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Name: "tmp", Rows: 4, Cols: 32, Base: 0x600000}, rows); err != nil {
		t.Errorf("name not reusable after Close: %v", err)
	}
}
