package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/field"
	"secndp/internal/memory"
)

// Property: the sharded OTP walk is bit-identical to the one-row-at-a-time
// reference for every element width and worker count.
func TestParallelOTPWeightedSumMatchesSerial(t *testing.T) {
	for _, we := range []uint{8, 16, 32, 64} {
		s := newTestScheme(t)
		geo := mkGeometry(memory.TagSep, 200, 32, we)
		tab, err := s.OpenTable(geo, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(we)))
		for trial := 0; trial < 10; trial++ {
			pf := 1 + rng.Intn(150)
			idx := make([]int, pf)
			w := make([]uint64, pf)
			for k := range idx {
				idx[k] = rng.Intn(200)
				w[k] = rng.Uint64()
			}
			want := referencePadSum(tab, idx, w)
			wantTag := referenceTagPadSum(tab, idx, w)
			for _, workers := range []int{1, 2, 3, 8, 177} {
				opts := QueryOptions{Workers: workers}
				got, err := tab.OTPWeightedSumCtx(context.Background(), idx, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("we=%d workers=%d trial=%d col=%d: %d != %d",
							we, workers, trial, j, got[j], want[j])
					}
				}
				gotTag, err := tab.TagPadSumCtx(context.Background(), idx, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !gotTag.Equal(wantTag) {
					t.Fatalf("we=%d workers=%d trial=%d: tag pad sum diverged", we, workers, trial)
				}
			}
		}
	}
}

// TestOTPHalfRejectsOutOfRangeRow: the OTP-half entry points check their
// rows as a query does, on one worker and on four: a row past the table
// or below zero is ErrIndexRange, and a length mismatch an error, never a
// panic on the caller or on a pad generator's goroutine.
func TestOTPHalfRejectsOutOfRangeRow(t *testing.T) {
	tab, _, _ := hotpathTable(t, memory.TagSep, 64, 32, 32, 35)
	w := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, bad := range []int{99, 64, -1} {
		idx := []int{0, 1, 2, 3, bad, 5, 6, 7}
		for _, workers := range []int{1, 4} {
			opts := QueryOptions{Workers: workers}
			if _, err := tab.OTPWeightedSumCtx(context.Background(), idx, w, opts); !errors.Is(err, ErrIndexRange) {
				t.Errorf("row %d, workers=%d: OTPWeightedSumCtx got %v, want ErrIndexRange", bad, workers, err)
			}
			if _, err := tab.TagPadSumCtx(context.Background(), idx, w, opts); !errors.Is(err, ErrIndexRange) {
				t.Errorf("row %d, workers=%d: TagPadSumCtx got %v, want ErrIndexRange", bad, workers, err)
			}
		}
		if _, err := tab.Verify(idx, w, make([]uint64, 32), field.Zero); !errors.Is(err, ErrIndexRange) {
			t.Errorf("row %d: Verify got %v, want ErrIndexRange", bad, err)
		}
	}
	if _, err := tab.OTPWeightedSumCtx(context.Background(), []int{1, 2}, w, QueryOptions{Workers: 4}); err == nil {
		t.Error("OTPWeightedSumCtx accepted 2 indices against 8 weights")
	}
}

// Property: QueryCtx equals the plaintext oracle, verified, across element
// widths.
func TestQueryCtxMatchesPlaintext(t *testing.T) {
	for _, we := range []uint{16, 32, 64} {
		s := newTestScheme(t)
		mem := memory.NewSpace()
		geo := mkGeometry(memory.TagSep, 64, 32, we)
		rng := rand.New(rand.NewSource(int64(100 + we)))
		rows := boundedRows(rng, 64, 32, 1<<(we/2))
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		ndp := &HonestNDP{Mem: mem}
		for trial := 0; trial < 10; trial++ {
			pf := 1 + rng.Intn(32)
			idx := make([]int, pf)
			w := make([]uint64, pf)
			for k := range idx {
				idx[k] = rng.Intn(64)
				w[k] = 1 + rng.Uint64()%8
			}
			got, err := tab.QueryCtx(context.Background(), ndp, idx, w,
				QueryOptions{Workers: 4, Verify: true})
			if err != nil {
				t.Fatalf("we=%d trial=%d: %v", we, trial, err)
			}
			want := plainWeightedSum(geo, rows, idx, w)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("we=%d trial=%d col=%d: %d != %d", we, trial, j, got[j], want[j])
				}
			}
		}
	}
}

func TestQueryCtxRejectsTamper(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(31)), 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	idx := []int{0, 3, 5}
	w := []uint64{2, 3, 4}
	opts := QueryOptions{Workers: 4, Verify: true}
	if _, err := tab.QueryCtx(context.Background(), ndp, idx, w, opts); err != nil {
		t.Fatalf("pre-tamper query failed: %v", err)
	}
	mem.FlipBit(geo.Layout.RowAddr(3)+5, 2)
	if _, err := tab.QueryCtx(context.Background(), ndp, idx, w, opts); !errors.Is(err, ErrVerification) {
		t.Errorf("tampered ciphertext not rejected: %v", err)
	}
	mem.FlipBit(geo.Layout.RowAddr(3)+5, 2) // restore
	mem.FlipBit(geo.Layout.TagAddr(5), 1)
	if _, err := tab.QueryCtx(context.Background(), ndp, idx, w, opts); !errors.Is(err, ErrVerification) {
		t.Errorf("tampered tag not rejected: %v", err)
	}
}

func TestQueryCtxVerifyWithoutTags(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(32)), 4, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	_, err := tab.QueryCtx(context.Background(), ndp, []int{0}, []uint64{1},
		QueryOptions{Verify: true})
	if !errors.Is(err, ErrNoTags) {
		t.Errorf("verify on tag-less table: got %v, want ErrNoTags", err)
	}
}

func TestQueryCtxCancelled(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(33)), 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A large query so every shard crosses a cancellation check.
	idx := make([]int, 1000)
	w := make([]uint64, 1000)
	for k := range idx {
		idx[k] = k % 8
		w[k] = 1
	}
	if _, err := tab.OTPWeightedSumCtx(ctx, idx, w, QueryOptions{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled OTPWeightedSumCtx: got %v", err)
	}
	if _, err := tab.TagPadSumCtx(ctx, idx, w, QueryOptions{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled TagPadSumCtx: got %v", err)
	}
}

// panickyNDP simulates an NDP crashing mid-query.
type panickyNDP struct{ HonestNDP }

func (p *panickyNDP) WeightedTagSumBatch(context.Context, Geometry, []BatchRequest, bool) ([]NDPBatchResult, error) {
	panic("transport lost")
}

func TestQueryCtxRecoversNDPPanic(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(34)), 4, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	bad := &panickyNDP{HonestNDP{Mem: mem}}
	_, err := tab.QueryCtx(context.Background(), bad, []int{0}, []uint64{1}, QueryOptions{})
	if err == nil {
		t.Fatal("panicking NDP did not surface as an error")
	}
}

// oobNDP returns a result vector of the wrong width.
type oobNDP struct{ HonestNDP }

func (o *oobNDP) WeightedTagSumBatch(_ context.Context, _ Geometry, reqs []BatchRequest, _ bool) ([]NDPBatchResult, error) {
	res := make([]NDPBatchResult, len(reqs))
	for i := range res {
		res[i].Sums = make([]uint64, 3)
	}
	return res, nil
}

func TestQueryCtxRejectsWrongWidthResult(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(37)), 4, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	bad := &oobNDP{HonestNDP{Mem: mem}}
	if _, err := tab.QueryCtx(context.Background(), bad, []int{0}, []uint64{1}, QueryOptions{}); err == nil {
		t.Error("wrong-width NDP result accepted")
	}
}
