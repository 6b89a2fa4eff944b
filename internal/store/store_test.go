package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/core"
	"secndp/internal/memory"
)

var key = []byte("store-test-key!!")

func buildTable(t *testing.T, placement memory.TagPlacement) (*core.Scheme, *memory.Space, core.Geometry, [][]uint64) {
	t.Helper()
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := core.Geometry{
		Layout: memory.Layout{
			Placement: placement, Base: 0x10000, TagBase: 0x800000,
			NumRows: 16, RowBytes: 128,
		},
		Params: core.Params{We: 32, M: 32},
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]uint64, 16)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	mem := memory.NewSpace()
	if _, err := scheme.EncryptTable(mem, geo, 7, rows); err != nil {
		t.Fatal(err)
	}
	return scheme, mem, geo, rows
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, placement := range []memory.TagPlacement{
		memory.TagNone, memory.TagColoc, memory.TagSep, memory.TagECC,
	} {
		scheme, mem, geo, rows := buildTable(t, placement)
		var buf bytes.Buffer
		if err := Save(&buf, mem, geo, 7); err != nil {
			t.Fatalf("%v: save: %v", placement, err)
		}
		// Load into a fresh untrusted memory (a different machine).
		mem2 := memory.NewSpace()
		geo2, version, err := Load(&buf, mem2)
		if err != nil {
			t.Fatalf("%v: load: %v", placement, err)
		}
		if version != 7 || geo2 != geo {
			t.Fatalf("%v: header round trip: v=%d geo=%+v", placement, version, geo2)
		}
		tab, err := scheme.OpenTable(geo2, version)
		if err != nil {
			t.Fatal(err)
		}
		ndp := &core.HonestNDP{Mem: mem2}
		idx := []int{0, 5, 9}
		w := []uint64{1, 2, 3}
		var got []uint64
		if placement == memory.TagNone {
			got, err = tab.QueryCtx(context.Background(), ndp, idx, w, core.QueryOptions{})
		} else {
			got, err = tab.QueryVerified(ndp, idx, w)
		}
		if err != nil {
			t.Fatalf("%v: query after reload: %v", placement, err)
		}
		want := rows[0][3] + 2*rows[5][3] + 3*rows[9][3]
		if got[3] != want&0xFFFFFFFF {
			t.Fatalf("%v: reloaded data wrong", placement)
		}
	}
}

func TestBlobContainsNoPlaintext(t *testing.T) {
	scheme, _, geo, _ := buildTable(t, memory.TagSep)
	_ = scheme
	// Encrypt a recognizable-pattern table and check the blob.
	mem := memory.NewSpace()
	s2, _ := core.NewScheme(key)
	rows := make([][]uint64, 16)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = 0xDEADBEEF
		}
	}
	if _, err := s2.EncryptTable(mem, geo, 3, rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, mem, geo, 3); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte{0xEF, 0xBE, 0xAD, 0xDE}) {
		// One chance collision in 2 KiB of ciphertext is ~2^-21; repeated
		// patterns appearing means plaintext leaked.
		count := bytes.Count(buf.Bytes(), []byte{0xEF, 0xBE, 0xAD, 0xDE})
		if count > 1 {
			t.Errorf("plaintext pattern appears %d times in the blob", count)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	_, mem, geo, _ := buildTable(t, memory.TagSep)
	var buf bytes.Buffer
	if err := Save(&buf, mem, geo, 7); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 5, 40, 200, buf.Len() - 2} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[pos] ^= 0xFF
		if _, _, err := Load(bytes.NewReader(raw), memory.NewSpace()); !errors.Is(err, ErrFormat) {
			t.Errorf("corruption at %d not rejected: %v", pos, err)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	_, mem, geo, _ := buildTable(t, memory.TagNone)
	var buf bytes.Buffer
	if err := Save(&buf, mem, geo, 7); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 10, 80, buf.Len() / 2, buf.Len() - 1} {
		if _, _, err := Load(bytes.NewReader(buf.Bytes()[:n]), memory.NewSpace()); !errors.Is(err, ErrFormat) {
			t.Errorf("truncation at %d not rejected: %v", n, err)
		}
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("NOPE....")), memory.NewSpace()); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic accepted: %v", err)
	}
}

func TestSaveValidatesGeometry(t *testing.T) {
	bad := core.Geometry{Params: core.Params{We: 32, M: 0}}
	if err := Save(&bytes.Buffer{}, memory.NewSpace(), bad, 1); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestAdversarialBlobStillCaughtByScheme(t *testing.T) {
	// A smart adversary fixes up the CRC after tampering: store's own check
	// passes, but the scheme's verification still rejects the data.
	scheme, mem, geo, _ := buildTable(t, memory.TagSep)
	var buf bytes.Buffer
	if err := Save(&buf, mem, geo, 7); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	// Flip a ciphertext byte (inside the data section) and recompute the
	// CRC by re-running Save-like framing: easiest is to corrupt and then
	// fix the trailing CRC by brute force over the 4 CRC bytes... instead
	// simply corrupt memory after a clean load, which models the same
	// adversary.
	mem2 := memory.NewSpace()
	geo2, v, err := Load(bytes.NewReader(raw), mem2)
	if err != nil {
		t.Fatal(err)
	}
	mem2.FlipBit(geo2.Layout.RowAddr(5)+3, 1)
	tab, _ := scheme.OpenTable(geo2, v)
	if _, err := tab.QueryVerified(&core.HonestNDP{Mem: mem2}, []int{5}, []uint64{1}); !errors.Is(err, core.ErrVerification) {
		t.Errorf("post-load tampering not rejected by the scheme: %v", err)
	}
}
