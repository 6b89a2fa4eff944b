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

// The processor's OTP share is regenerated from (key, address, version)
// on every query; no pad outlives the query that made it. These tests pin
// what that rests on: pads are a pure function of the version, hot rows
// asked for again and again (alone, concurrently, across a batch) decrypt
// the same every time, and a handle that still holds a dead version is
// caught by verification rather than answering from stale pads.

func TestPadsAreDeterministicPerVersion(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 16, 32, 32)
	a, err := s.OpenTable(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.OpenTable(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.OpenTable(geo, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < geo.Layout.NumRows; i++ {
		if !slices.Equal(a.padRow(i), b.padRow(i)) {
			t.Fatalf("row %d: two handles on version 1 regenerate different pads", i)
		}
		if slices.Equal(a.padRow(i), next.padRow(i)) {
			t.Fatalf("row %d: versions 1 and 2 share a pad", i)
		}
		if i > 0 && slices.Equal(a.padRow(i), a.padRow(i-1)) {
			t.Fatalf("rows %d and %d share a pad", i-1, i)
		}
		addr := geo.Layout.RowAddr(i)
		if s.gen.TagPad(addr, 1) == s.gen.TagPad(addr, 2) {
			t.Fatalf("row %d: versions 1 and 2 share a tag pad", i)
		}
	}
}

func TestPadRegenerationHotRows(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 256, 32, 32)
	tab, err := s.OpenTable(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 64)
	w := make([]uint64, 64)
	for k := range idx {
		idx[k] = k % 8 // 8 hot rows, heavy reuse
		w[k] = uint64(k + 1)
	}
	want := referencePadSum(tab, idx, w)
	for round := 0; round < 3; round++ {
		got, err := tab.OTPWeightedSumCtx(context.Background(), idx, w, QueryOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: hot-row pad sum diverged from the reference", round)
		}
	}

	// A sweep over every row after the hot rounds: nothing from the hot
	// workload leaks into the pads of other rows.
	sweep := make([]int, 256)
	sw := make([]uint64, 256)
	for k := range sweep {
		sweep[k] = k
		sw[k] = 1
	}
	got, err := tab.OTPWeightedSumCtx(context.Background(), sweep, sw, QueryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, referencePadSum(tab, sweep, sw)) {
		t.Fatal("sweep after hot rounds diverged from the reference")
	}
}

func TestPadRegenerationConcurrent(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 64, 32, 32)
	tab, err := s.OpenTable(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 128)
	w := make([]uint64, 128)
	rng := rand.New(rand.NewSource(35))
	for k := range idx {
		idx[k] = rng.Intn(64)
		w[k] = rng.Uint64()
	}
	want := referencePadSum(tab, idx, w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := tab.OTPWeightedSumCtx(context.Background(), idx, w, QueryOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want) {
				t.Error("concurrent query diverged from the reference")
			}
		}()
	}
	wg.Wait()
}

func TestQueryBatchCtxSharedHotRows(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 32, 32, 32)
	rng := rand.New(rand.NewSource(36))
	rows := boundedRows(rng, 32, 32, 1<<20)
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	reqs := make([]BatchRequest, 24)
	for i := range reqs {
		pf := 1 + rng.Intn(8)
		idx := make([]int, pf)
		w := make([]uint64, pf)
		for k := range idx {
			idx[k] = rng.Intn(8) // shared hot set across the batch
			w[k] = 1 + rng.Uint64()%4
		}
		reqs[i] = BatchRequest{Idx: idx, Weights: w}
	}
	// The pipeline generates each distinct row's pad once per batch and
	// folds it into every request that names the row; a second batch
	// regenerates the same pads.
	for run := 0; run < 2; run++ {
		out := tab.QueryBatchCtx(context.Background(), ndp, reqs, QueryOptions{Workers: 4, Verify: true})
		if err := FirstError(out); err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if !slices.Equal(r.Res, plainWeightedSum(geo, rows, reqs[i].Idx, reqs[i].Weights)) {
				t.Fatalf("run %d request %d: batch result differs from plaintext", run, i)
			}
		}
	}
}

// TestStaleHandleAfterReencryptFailsVerification: a handle on the dead
// version pairs its pads with the new ciphertext. Through every query
// shape, one worker and four, and through the batch pipeline, the MAC
// check rejects it; the new handle reproduces the pre-rotation result.
func TestStaleHandleAfterReencryptFailsVerification(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 64, 32, 32)
	rng := rand.New(rand.NewSource(41))
	rows := boundedRows(rng, 64, 32, 1<<20)
	stale, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	honest := &HonestNDP{Mem: mem}
	idx := []int{3, 17, 42, 3}
	w := []uint64{1, 2, 3, 4}
	want, err := stale.QueryCtx(context.Background(), honest, idx, w, QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := stale.Reencrypt(mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range shapes {
		for _, workers := range []int{1, 4} {
			opts := QueryOptions{Workers: workers, Verify: true}
			if _, err := shape.query(context.Background(), stale, honest, idx, w, opts); !errors.Is(err, ErrVerification) {
				t.Fatalf("%s workers=%d: stale handle err = %v, want ErrVerification", shape.name, workers, err)
			}
			got, err := shape.query(context.Background(), fresh, honest, idx, w, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: fresh handle: %v", shape.name, workers, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s workers=%d: post-rotation result differs from pre-rotation", shape.name, workers)
			}
		}
	}
	reqs := []BatchRequest{{Idx: idx, Weights: w}, {Idx: []int{0, 63}, Weights: []uint64{1, 1}}}
	for i, r := range stale.QueryBatchCtx(context.Background(), honest, reqs, QueryOptions{Workers: 2, Verify: true}) {
		if !errors.Is(r.Err, ErrVerification) {
			t.Fatalf("batch request %d on the stale handle: err = %v, want ErrVerification", i, r.Err)
		}
	}
}

// TestStaleHandleAfterReencryptCorruptsUnverifiedQueries: without
// verification nothing catches the dead version's pads and the query
// silently returns garbage. This is why a rotation must hand out a new
// handle and retire the old one.
func TestStaleHandleAfterReencryptCorruptsUnverifiedQueries(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 16, 8, 32)
	rng := rand.New(rand.NewSource(42))
	rows := boundedRows(rng, 16, 8, 1<<20)
	stale, err := s.EncryptTable(mem, geo, 7, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	idx := []int{5}
	w := []uint64{1}
	want := plainWeightedSum(geo, rows, idx, w)

	fresh, err := stale.Reencrypt(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stale.QueryCtx(context.Background(), ndp, idx, w, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(got, want) {
		t.Fatal("stale handle decrypted the re-encrypted row correctly; versions 7 and 8 share pads")
	}
	got, err = fresh.QueryCtx(context.Background(), ndp, idx, w, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("fresh handle after rotation differs from plaintext")
	}
}
