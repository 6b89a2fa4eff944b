package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/memory"
	"secndp/internal/ring"
)

func TestLocalWeightedSumMatchesNDP(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 32, 32, 32)
	rng := rand.New(rand.NewSource(41))
	rows := randRows(rng, ring.MustNew(32), 32, 32)
	mem := memory.NewSpace()
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 7, 31, 7}
	weights := []uint64{1, 3, 5, 2}
	got, err := tab.LocalWeightedSum(context.Background(), mem, idx, weights)
	if err != nil {
		t.Fatalf("local fallback failed: %v", err)
	}
	// The fallback must agree with the NDP path bit-for-bit.
	want, err := queryUnverified(tab, &HonestNDP{Mem: mem}, idx, weights)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d: local %d != ndp %d", j, got[j], want[j])
		}
	}
	// And with the plaintext reference.
	for j := 0; j < 32; j++ {
		var ref uint64
		for k, i := range idx {
			ref += weights[k] * rows[i][j]
		}
		if got[j] != ref&0xFFFFFFFF {
			t.Fatalf("col %d: local %d != plaintext %d", j, got[j], ref&0xFFFFFFFF)
		}
	}
}

func TestLocalWeightedSumElemMatchesNDP(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 16, 32, 32)
	rng := rand.New(rand.NewSource(42))
	rows := randRows(rng, ring.MustNew(32), 16, 32)
	mem := memory.NewSpace()
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	idx, jdx := []int{2, 9}, []int{5, 30}
	weights := []uint64{7, 11}
	got, err := tab.LocalWeightedSumElem(context.Background(), mem, idx, jdx, weights)
	if err != nil {
		t.Fatal(err)
	}
	ref := (7*rows[2][5] + 11*rows[9][30]) & 0xFFFFFFFF
	if got != ref {
		t.Fatalf("elem fallback %d != plaintext %d", got, ref)
	}
}

func TestLocalFallbackRequiresMirror(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rng := rand.New(rand.NewSource(43))
	rows := randRows(rng, ring.MustNew(32), 4, 32)
	tab, err := s.EncryptTable(memory.NewSpace(), geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.LocalWeightedSum(context.Background(), nil, []int{0}, []uint64{1}); !errors.Is(err, ErrNoMirror) {
		t.Errorf("nil mirror: got %v, want ErrNoMirror", err)
	}
	if _, err := tab.LocalWeightedSumElem(context.Background(), nil, []int{0}, []int{0}, []uint64{1}); !errors.Is(err, ErrNoMirror) {
		t.Errorf("nil mirror (elem): got %v, want ErrNoMirror", err)
	}
}

func TestLocalFallbackValidatesQuery(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rng := rand.New(rand.NewSource(44))
	rows := randRows(rng, ring.MustNew(32), 4, 32)
	mem := memory.NewSpace()
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := tab.LocalWeightedSum(ctx, mem, []int{99}, []uint64{1}); !errors.Is(err, ErrIndexRange) {
		t.Errorf("row out of range: got %v, want ErrIndexRange", err)
	}
	if _, err := tab.LocalWeightedSumElem(ctx, mem, []int{0}, []int{99}, []uint64{1}); !errors.Is(err, ErrIndexRange) {
		t.Errorf("column out of range: got %v, want ErrIndexRange", err)
	}
	if _, err := tab.LocalWeightedSumElem(ctx, mem, []int{0, 1}, []int{0}, []uint64{1, 1}); err == nil {
		t.Error("mismatched jdx length accepted")
	}
}

func TestLocalFallbackHonorsContext(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rng := rand.New(rand.NewSource(45))
	rows := randRows(rng, ring.MustNew(32), 8, 32)
	mem := memory.NewSpace()
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tab.LocalWeightedSum(ctx, mem, []int{0, 1}, []uint64{1, 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: got %v, want context.Canceled", err)
	}
	if _, err := tab.LocalWeightedSumElem(ctx, mem, []int{0}, []int{0}, []uint64{1}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context (elem): got %v, want context.Canceled", err)
	}
}
