package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/field"
	"secndp/internal/memory"
)

// plainWeightedSum is the reference oracle: the weighted sum over plaintext
// in the ring, exactly what an unprotected NDP would compute.
func plainWeightedSum(geo Geometry, rows [][]uint64, idx []int, weights []uint64) []uint64 {
	r := geo.ringOf()
	acc := make([]uint64, geo.Params.M)
	for k, i := range idx {
		r.ScaleAccum(acc, weights[k], rows[i])
	}
	return acc
}

// boundedRows generates rows whose elements are small enough that typical
// weighted sums stay below 2^we (no overflow), as Theorem A.2 requires for
// verification.
func boundedRows(rng *rand.Rand, n, m int, bound uint64) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % bound
		}
	}
	return rows
}

func TestQueryMatchesPlaintext(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 100, 32, 32)
	rng := rand.New(rand.NewSource(10))
	rows := randRows(rng, geo.ringOf(), 100, 32)
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	for trial := 0; trial < 20; trial++ {
		pf := 1 + rng.Intn(40)
		idx := make([]int, pf)
		w := make([]uint64, pf)
		for k := range idx {
			idx[k] = rng.Intn(100)
			w[k] = rng.Uint64() // arbitrary ring weights: wrap-around is fine without verification
		}
		got, err := queryUnverified(tab, ndp, idx, w)
		if err != nil {
			t.Fatal(err)
		}
		want := plainWeightedSum(geo, rows, idx, w)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d col %d: %d != %d", trial, j, got[j], want[j])
			}
		}
	}
}

func TestQueryRepeatedIndices(t *testing.T) {
	// SLS queries can hit the same row multiple times.
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rng := rand.New(rand.NewSource(11))
	rows := randRows(rng, geo.ringOf(), 4, 32)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	idx := []int{2, 2, 2}
	w := []uint64{1, 1, 1}
	got, err := queryUnverified(tab, ndp, idx, w)
	if err != nil {
		t.Fatal(err)
	}
	r := geo.ringOf()
	for j := range got {
		if got[j] != r.Mul(3, rows[2][j]) {
			t.Fatalf("col %d: %d != 3*%d", j, got[j], rows[2][j])
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rows := randRows(rand.New(rand.NewSource(12)), geo.ringOf(), 4, 32)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	if _, err := queryUnverified(tab, ndp, []int{0, 1}, []uint64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := queryUnverified(tab, ndp, []int{4}, []uint64{1}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := queryUnverified(tab, ndp, []int{-1}, []uint64{1}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestQueryElemMatchesPlaintext(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 16, 32, 32)
	rng := rand.New(rand.NewSource(13))
	rows := randRows(rng, geo.ringOf(), 16, 32)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	r := geo.ringOf()
	for trial := 0; trial < 20; trial++ {
		pf := 1 + rng.Intn(10)
		idx := make([]int, pf)
		jdx := make([]int, pf)
		w := make([]uint64, pf)
		var want uint64
		for k := range idx {
			idx[k] = rng.Intn(16)
			jdx[k] = rng.Intn(32)
			w[k] = rng.Uint64()
			want += w[k] * rows[idx[k]][jdx[k]]
		}
		want = r.Reduce(want)
		cres, err := ndp.WeightedSumElem(context.Background(), geo, idx, jdx, w)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := tab.OTPWeightedSumElem(idx, jdx, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Add(cres, eres); got != want {
			t.Fatalf("trial %d: scalar query %d != %d", trial, got, want)
		}
	}
}

func TestOTPWeightedSumElemValidation(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	tab, _ := s.OpenTable(geo, 1)
	if _, err := tab.OTPWeightedSumElem([]int{0}, []int{32}, []uint64{1}); err == nil {
		t.Error("column out of range accepted")
	}
	if _, err := tab.OTPWeightedSumElem([]int{0}, []int{0, 1}, []uint64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestVerifiedQueryHonestPasses(t *testing.T) {
	for _, placement := range []memory.TagPlacement{memory.TagColoc, memory.TagSep, memory.TagECC} {
		s := newTestScheme(t)
		mem := memory.NewSpace()
		geo := mkGeometry(placement, 50, 32, 32)
		rng := rand.New(rand.NewSource(14))
		// Bounded data + small weights: PF·w·p < 40·16·2^20 < 2^32.
		rows := boundedRows(rng, 50, 32, 1<<20)
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatalf("%v: %v", placement, err)
		}
		ndp := &HonestNDP{Mem: mem}
		for trial := 0; trial < 10; trial++ {
			pf := 1 + rng.Intn(40)
			idx := make([]int, pf)
			w := make([]uint64, pf)
			for k := range idx {
				idx[k] = rng.Intn(50)
				w[k] = 1 + rng.Uint64()%16
			}
			got, err := tab.QueryVerified(ndp, idx, w)
			if err != nil {
				t.Fatalf("%v trial %d: honest query rejected: %v", placement, trial, err)
			}
			want := plainWeightedSum(geo, rows, idx, w)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%v: verified result wrong at col %d", placement, j)
				}
			}
		}
	}
}

func TestVerifiedQuery8BitQuantized(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagColoc, 64, 32, 8) // quantized rows: 32 bytes
	rng := rand.New(rand.NewSource(15))
	rows := boundedRows(rng, 64, 32, 16) // elements < 16, weights 1: PF<=16 keeps sums < 256
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	idx := []int{1, 5, 9, 13}
	w := []uint64{1, 1, 1, 1}
	got, err := tab.QueryVerified(ndp, idx, w)
	if err != nil {
		t.Fatal(err)
	}
	want := plainWeightedSum(geo, rows, idx, w)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d mismatch", j)
		}
	}
}

func TestVerifyRejectsTamperedData(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rng := rand.New(rand.NewSource(16))
	rows := boundedRows(rng, 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	idx := []int{0, 3, 5}
	w := []uint64{2, 3, 4}
	// Sanity: passes before tampering.
	if _, err := tab.QueryVerified(ndp, idx, w); err != nil {
		t.Fatalf("pre-tamper query failed: %v", err)
	}
	// Flip one ciphertext bit in a queried row.
	mem.FlipBit(geo.Layout.RowAddr(3)+5, 2)
	if _, err := tab.QueryVerified(ndp, idx, w); !errors.Is(err, ErrVerification) {
		t.Errorf("tampered data not rejected: %v", err)
	}
}

func TestVerifyRejectsTamperedTag(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rng := rand.New(rand.NewSource(17))
	rows := boundedRows(rng, 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	idx := []int{1, 2}
	w := []uint64{1, 1}
	mem.FlipBit(geo.Layout.TagAddr(2), 0)
	if _, err := tab.QueryVerified(ndp, idx, w); !errors.Is(err, ErrVerification) {
		t.Errorf("tampered tag not rejected: %v", err)
	}
}

func TestVerifyRejectsSwappedRows(t *testing.T) {
	// Copying valid ciphertext (with its tag) from a different address must
	// fail: pads and tag pads are address-bound.
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rng := rand.New(rand.NewSource(18))
	rows := boundedRows(rng, 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	// Adversary swaps row 0 and row 1 ciphertexts and their tags.
	r0 := mem.Snapshot(geo.Layout.RowAddr(0), geo.Layout.RowBytes)
	r1 := mem.Snapshot(geo.Layout.RowAddr(1), geo.Layout.RowBytes)
	mem.TamperWrite(geo.Layout.RowAddr(0), r1)
	mem.TamperWrite(geo.Layout.RowAddr(1), r0)
	t0 := mem.Snapshot(geo.Layout.TagAddr(0), memory.TagBytes)
	t1 := mem.Snapshot(geo.Layout.TagAddr(1), memory.TagBytes)
	mem.TamperWrite(geo.Layout.TagAddr(0), t1)
	mem.TamperWrite(geo.Layout.TagAddr(1), t0)
	if _, err := tab.QueryVerified(ndp, []int{0}, []uint64{1}); !errors.Is(err, ErrVerification) {
		t.Errorf("address-swapped rows not rejected: %v", err)
	}
}

func TestVerifyRejectsReplayedStaleData(t *testing.T) {
	// Replay attack: adversary snapshots version-1 ciphertext, the enclave
	// re-encrypts under version 2, adversary restores the stale bytes.
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rng := rand.New(rand.NewSource(19))
	rowsV1 := boundedRows(rng, 4, 32, 1<<20)
	if _, err := s.EncryptTable(mem, geo, 1, rowsV1); err != nil {
		t.Fatal(err)
	}
	stale := mem.Snapshot(geo.Layout.Base, int(geo.Layout.DataEnd()-geo.Layout.Base))
	staleTags := mem.Snapshot(geo.Layout.TagBase, 4*memory.TagBytes)

	rowsV2 := boundedRows(rng, 4, 32, 1<<20)
	tab2, err := s.EncryptTable(mem, geo, 2, rowsV2)
	if err != nil {
		t.Fatal(err)
	}
	mem.Replay(geo.Layout.Base, stale)
	mem.Replay(geo.Layout.TagBase, staleTags)

	ndp := &HonestNDP{Mem: mem}
	if _, err := tab2.QueryVerified(ndp, []int{0, 1}, []uint64{1, 1}); !errors.Is(err, ErrVerification) {
		t.Errorf("replayed stale data not rejected: %v", err)
	}
}

// maliciousNDP wraps an honest NDP and corrupts its outputs.
type maliciousNDP struct {
	HonestNDP
	flipResult bool
	flipTag    bool
}

func (m *maliciousNDP) WeightedTagSumBatch(ctx context.Context, geo Geometry, reqs []BatchRequest, verify bool) ([]NDPBatchResult, error) {
	res, err := m.HonestNDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
	if err != nil {
		return nil, err
	}
	for i := range res {
		if res[i].Err != nil {
			continue
		}
		if m.flipResult {
			res[i].Sums[0] ^= 1
		}
		if m.flipTag {
			res[i].Tag = field.Add(res[i].Tag, field.One)
		}
	}
	return res, nil
}

func TestVerifyRejectsMaliciousNDPResult(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagECC, 8, 32, 32)
	rng := rand.New(rand.NewSource(20))
	rows := boundedRows(rng, 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	idx := []int{0, 1, 2}
	w := []uint64{1, 2, 3}

	bad := &maliciousNDP{HonestNDP: HonestNDP{Mem: mem}, flipResult: true}
	if _, err := tab.QueryVerified(bad, idx, w); !errors.Is(err, ErrVerification) {
		t.Errorf("malicious result not rejected: %v", err)
	}
	bad2 := &maliciousNDP{HonestNDP: HonestNDP{Mem: mem}, flipTag: true}
	if _, err := tab.QueryVerified(bad2, idx, w); !errors.Is(err, ErrVerification) {
		t.Errorf("malicious tag not rejected: %v", err)
	}
	// And both flipped together still rejected (the adversary cannot find a
	// consistent pair without the key).
	bad3 := &maliciousNDP{HonestNDP: HonestNDP{Mem: mem}, flipResult: true, flipTag: true}
	if _, err := tab.QueryVerified(bad3, idx, w); !errors.Is(err, ErrVerification) {
		t.Errorf("jointly corrupted result+tag not rejected: %v", err)
	}
}

func TestVerifyDetectsOverflow(t *testing.T) {
	// Theorem A.2's precondition in reverse: when a column's true sum
	// exceeds 2^we, the ring result wraps and verification must fail —
	// that is the paper's overflow-detection feature (footnote 1).
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 2, 32, 8) // 8-bit ring, easy to overflow
	rows := [][]uint64{make([]uint64, 32), make([]uint64, 32)}
	for j := 0; j < 32; j++ {
		rows[0][j] = 200
		rows[1][j] = 100
	}
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	// 200 + 100 = 300 > 255: every column overflows.
	if _, err := tab.QueryVerified(ndp, []int{0, 1}, []uint64{1, 1}); !errors.Is(err, ErrVerification) {
		t.Errorf("overflowing sum not rejected: %v", err)
	}
	// Non-overflowing query on the same table passes.
	if _, err := tab.QueryVerified(ndp, []int{1}, []uint64{2}); err != nil {
		t.Errorf("non-overflowing query rejected: %v", err)
	}
}

func TestVerifyWithoutTagsErrors(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 2, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(21)), 2, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	if _, err := tab.QueryVerified(ndp, []int{0}, []uint64{1}); err == nil {
		t.Error("QueryVerified on tag-less table did not error")
	}
	if ok, err := tab.Verify([]int{0}, []uint64{1}, make([]uint64, 32), field.Zero); err == nil || ok {
		t.Error("Verify on tag-less table did not error")
	}
}

// Property: random bit flips anywhere in the queried region are detected.
func TestVerifyRandomTamperSweep(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rng := rand.New(rand.NewSource(22))
	idx := []int{0, 1, 2, 3}
	w := []uint64{1, 1, 1, 1}
	for trial := 0; trial < 30; trial++ {
		mem := memory.NewSpace()
		rows := boundedRows(rng, 4, 32, 1<<20)
		tab, _ := s.EncryptTable(mem, geo, 1, rows)
		// Corrupt a random byte of a random queried row or tag.
		if rng.Intn(2) == 0 {
			row := rng.Intn(4)
			off := uint64(rng.Intn(geo.Layout.RowBytes))
			mem.FlipBit(geo.Layout.RowAddr(row)+off, uint(rng.Intn(8)))
		} else {
			row := rng.Intn(4)
			off := uint64(rng.Intn(memory.TagBytes))
			mem.FlipBit(geo.Layout.TagAddr(row)+off, uint(rng.Intn(8)))
		}
		ndp := &HonestNDP{Mem: mem}
		if _, err := tab.QueryVerified(ndp, idx, w); !errors.Is(err, ErrVerification) {
			t.Fatalf("trial %d: tamper not detected (err=%v)", trial, err)
		}
	}
}

// Tampering an unqueried row must NOT fail queries that do not touch it —
// the tag covers exactly the queried linear combination.
func TestVerifyIgnoresUnrelatedTamper(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(23)), 8, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	mem.FlipBit(geo.Layout.RowAddr(7), 0) // corrupt row 7
	ndp := &HonestNDP{Mem: mem}
	if _, err := tab.QueryVerified(ndp, []int{0, 1}, []uint64{1, 1}); err != nil {
		t.Errorf("query not touching the corrupted row was rejected: %v", err)
	}
}

func TestVerifiedQueryMultiSubstringChecksum(t *testing.T) {
	// Algorithm 8: the whole protocol with cnt_s = 4 seed substrings.
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 16, 32, 32)
	geo.Params.ChecksumSubstrings = 4
	rng := rand.New(rand.NewSource(24))
	rows := boundedRows(rng, 16, 32, 1<<20)
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	ndp := &HonestNDP{Mem: mem}
	idx := []int{0, 5, 10, 15}
	w := []uint64{3, 1, 4, 1}
	got, err := tab.QueryVerified(ndp, idx, w)
	if err != nil {
		t.Fatalf("honest multi-substring query rejected: %v", err)
	}
	want := plainWeightedSum(geo, rows, idx, w)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d mismatch", j)
		}
	}
	// Tampering is still caught.
	mem.FlipBit(geo.Layout.RowAddr(5)+1, 1)
	if _, err := tab.QueryVerified(ndp, idx, w); !errors.Is(err, ErrVerification) {
		t.Errorf("multi-substring scheme missed tampering: %v", err)
	}
}

func TestQueryElemCtxMatchesPlaintext(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 8, 32, 32)
	rng := rand.New(rand.NewSource(25))
	rows := randRows(rng, geo.ringOf(), 8, 32)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	ndp := &HonestNDP{Mem: mem}
	ctx := context.Background()
	got, err := tab.QueryElemCtx(ctx, ndp, []int{1, 3}, []int{5, 9}, []uint64{2, 7})
	if err != nil {
		t.Fatal(err)
	}
	r := geo.ringOf()
	want := r.Reduce(2*rows[1][5] + 7*rows[3][9])
	if got != want {
		t.Errorf("QueryElemCtx = %d, want %d", got, want)
	}
	if _, err := tab.QueryElemCtx(ctx, ndp, []int{1}, []int{0, 1}, []uint64{1}); err == nil {
		t.Error("jdx length mismatch accepted")
	}
	if _, err := tab.QueryElemCtx(ctx, ndp, []int{9}, []int{0}, []uint64{1}); err == nil {
		t.Error("row out of range accepted")
	}
}
