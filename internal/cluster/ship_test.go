package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/remote"
)

// Provisioning over the wire is ShipRun into a remote transport: these
// tests ship whole tables to a loopback NDP server and query them back.

// shipServer starts a loopback NDP server over a fresh memory and dials
// one bare client to it.
func shipServer(t *testing.T) (*memory.Space, *remote.Client) {
	t.Helper()
	mem := memory.NewSpace()
	srv := remote.NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return mem, c
}

// shipTable encrypts rows into a staging image and ships every row to w.
func shipTable(ctx context.Context, t *testing.T, geo core.Geometry, rows [][]uint64, w BlobWriter) (*core.Table, *memory.Space, error) {
	t.Helper()
	s, err := core.NewScheme([]byte("k0k1k2k3k4k5k6k7"))
	if err != nil {
		t.Fatal(err)
	}
	staging := memory.NewSpace()
	tab, err := s.EncryptTable(staging, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab, staging, ShipRun(ctx, geo, staging, 0, len(rows), w)
}

// TestShipRunOverTheWire: a table shipped to a server — tags separate,
// in the ECC side band, or co-located in the data span — answers a
// verified query over the wire with the plaintext sum.
func TestShipRunOverTheWire(t *testing.T) {
	for _, placement := range []memory.TagPlacement{memory.TagSep, memory.TagECC, memory.TagColoc} {
		_, c := shipServer(t)
		geo := mkGeometry(placement, 16, 32, 32)
		rows := boundedRows(rand.New(rand.NewSource(62)), 16, 32, 1<<20)
		tab, _, err := shipTable(context.Background(), t, geo, rows, c)
		if err != nil {
			t.Fatalf("placement %v: %v", placement, err)
		}
		idx, w := []int{0, 6, 15}, []uint64{3, 4, 1}
		got, err := tab.QueryCtx(context.Background(), c, idx, w, core.QueryOptions{Verify: true})
		if err != nil {
			t.Fatalf("placement %v: %v", placement, err)
		}
		for j := range got {
			if want := (3*rows[0][j] + 4*rows[6][j] + rows[15][j]) & 0xFFFFFFFF; got[j] != want {
				t.Fatalf("placement %v col %d: %d != %d", placement, j, got[j], want)
			}
		}
	}
}

// TestShipRunPlaintextNeverOnWire: only ciphertext is shipped — the
// server's memory holds the table's bytes, and they are not the
// plaintext's.
func TestShipRunPlaintextNeverOnWire(t *testing.T) {
	mem, c := shipServer(t)
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rows := make([][]uint64, 4)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = 0xA5A5A5A5 // recognizable pattern
		}
	}
	_, staging, err := shipTable(context.Background(), t, geo, rows, c)
	if err != nil {
		t.Fatal(err)
	}
	stored := mem.Snapshot(geo.Layout.Base, 4*128)
	if !bytes.Equal(stored, staging.Snapshot(geo.Layout.Base, 4*128)) {
		t.Fatal("server memory differs from the staging image")
	}
	if n := bytes.Count(stored, []byte{0xA5, 0xA5, 0xA5, 0xA5}); n > 2 { // a couple of chance collisions are tolerable
		t.Errorf("plaintext pattern appears %d times in server memory", n)
	}
}

// TestShipRunOverOneMiB: a data span past the wire's 1 MiB frame limit
// ships as several writes and answers a verified query over the wire.
func TestShipRunOverOneMiB(t *testing.T) {
	_, c := shipServer(t)
	geo := mkGeometry(memory.TagSep, 5000, 64, 32) // 5000 × 256 B = 1.22 MiB
	geo.Layout.TagBase = 0x8000000
	rows := boundedRows(rand.New(rand.NewSource(9)), 5000, 64, 1<<16)
	tab, _, err := shipTable(context.Background(), t, geo, rows, c)
	if err != nil {
		t.Fatalf("shipping a %d-byte span: %v", 5000*256, err)
	}
	idx, w := []int{0, 4095, 4096, 4999}, []uint64{1, 2, 3, 4}
	got, err := tab.QueryCtx(context.Background(), c, idx, w, core.QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		var want uint64
		for k, i := range idx {
			want += w[k] * rows[i][j]
		}
		if got[j] != want&0xFFFFFFFF {
			t.Fatalf("col %d: %d != %d", j, got[j], want)
		}
	}
}

// TestShipRunCancelled: a shipment under an ended context writes nothing
// and reports the context's error.
func TestShipRunCancelled(t *testing.T) {
	_, c := shipServer(t)
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(7)), 8, 32, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := shipTable(ctx, t, geo, rows, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled shipment: got %v, want Canceled", err)
	}
}
