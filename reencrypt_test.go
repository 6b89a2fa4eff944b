package secndp

import (
	"context"
	"math/rand"
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
	specs, _ := reshardTestServers(t, 2)
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
	specs, _ := reshardTestServers(t, 4)
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
