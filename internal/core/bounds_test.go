package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"secndp/internal/memory"
)

func TestEncryptionAdvantageIsKeyFloor(t *testing.T) {
	b := DefaultBounds(Params{We: 32, M: 32}, 1024)
	if got := b.EncryptionAdvantage(); got != math.Ldexp(1, -128) {
		t.Errorf("encryption advantage %g, want 2^-128", got)
	}
}

// The paper's §IV-G sentence: "If we consider a 1024-dimension matrix row,
// we can serve 2^53 queries without changing key, while maintaining a
// security level higher than 64 bits."
func TestPaperSecuritySizingClaim(t *testing.T) {
	b := DefaultBounds(Params{We: 32, M: 1024}, 500000)
	bits := b.SecurityBits(math.Ldexp(1, 53)) // 2^53 verify queries
	if bits < 64 {
		t.Errorf("security at 2^53 queries = %.1f bits, paper claims > 64", bits)
	}
	// And the inverse: the budget for 64-bit security is at least 2^53.
	q, err := b.MaxQueriesForSecurity(64)
	if err != nil {
		t.Fatal(err)
	}
	if q < math.Ldexp(1, 53) {
		t.Errorf("query budget for 64-bit security = 2^%.1f, want ≥ 2^53", math.Log2(q))
	}
}

func TestForgeryAdvantageScalesWithM(t *testing.T) {
	small := DefaultBounds(Params{We: 32, M: 32}, 100)
	large := DefaultBounds(Params{We: 32, M: 1024}, 100)
	qv := 1e6
	if large.ForgeryAdvantage(qv) <= small.ForgeryAdvantage(qv) {
		t.Error("larger rows should weaken the bound proportionally")
	}
	ratio := large.ForgeryAdvantage(qv) / small.ForgeryAdvantage(qv)
	if math.Abs(ratio-32) > 1e-9 {
		t.Errorf("m ratio 32 should appear exactly: got %g", ratio)
	}
}

func TestMultiSubstringTightensBound(t *testing.T) {
	// The appendix proposition: cnt_s substrings divide the m/q term.
	plain := DefaultBounds(Params{We: 32, M: 1024}, 100)
	multi := DefaultBounds(Params{We: 32, M: 1024, ChecksumSubstrings: 4}, 100)
	qv := 1e9
	if r := plain.ForgeryAdvantage(qv) / multi.ForgeryAdvantage(qv); math.Abs(r-4) > 1e-9 {
		t.Errorf("cnt_s=4 should tighten the bound 4×: got %g", r)
	}
}

func TestSecurityBitsCappedByKey(t *testing.T) {
	b := DefaultBounds(Params{We: 32, M: 32}, 8)
	if got := b.SecurityBits(1); got > 128 {
		t.Errorf("security bits %g exceed the key floor", got)
	}
}

func TestMaxQueriesValidation(t *testing.T) {
	b := DefaultBounds(Params{We: 32, M: 32}, 8)
	if _, err := b.MaxQueriesForSecurity(0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := b.MaxQueriesForSecurity(127); err == nil {
		t.Error("target above the tag width accepted")
	}
}

func TestReencryptRoundTrip(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 8, 32, 32)
	rng := rand.New(rand.NewSource(60))
	rows := boundedRows(rng, 8, 32, 1<<20)
	t1, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	oldCT := mem.Snapshot(geo.Layout.Base, geo.Layout.RowBytes)

	t2, err := t1.Reencrypt(mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Version() != 2 {
		t.Errorf("new version %d", t2.Version())
	}
	newCT := mem.Snapshot(geo.Layout.Base, geo.Layout.RowBytes)
	same := 0
	for i := range oldCT {
		if oldCT[i] == newCT[i] {
			same++
		}
	}
	if same == len(oldCT) {
		t.Error("ciphertext unchanged by re-encryption")
	}
	// Data is intact and verifiable under the new handle.
	got, err := t2.QueryVerified(&HonestNDP{Mem: mem}, []int{0, 7}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 32; j++ {
		want := rows[0][j] + 2*rows[7][j]
		if got[j] != want&0xFFFFFFFF {
			t.Fatalf("col %d: %d != %d after re-encryption", j, got[j], want)
		}
	}
	// The old handle is stale: its pads no longer decrypt memory.
	stale := t1.DecryptRow(mem, 0)
	identical := true
	for j := range stale {
		if stale[j] != rows[0][j] {
			identical = false
		}
	}
	if identical {
		t.Error("old handle still decrypts after re-encryption (pads reused?)")
	}
	// Querying through the old handle pairs dead-version pads with the new
	// ciphertext; the MAC check must reject it, not return garbage.
	if _, err := t1.QueryVerified(&HonestNDP{Mem: mem}, []int{0, 7}, []uint64{1, 2}); !errors.Is(err, ErrVerification) {
		t.Errorf("stale handle after re-encryption: err = %v, want ErrVerification", err)
	}
}

func TestReencryptRejectsSameVersion(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 2, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(61)), 2, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 5, rows)
	if _, err := tab.Reencrypt(mem, 5); err == nil {
		t.Error("same-version re-encryption accepted")
	}
}

func TestReencryptRefusesToLaunderCorruption(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(62)), 4, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	mem.FlipBit(geo.Layout.RowAddr(2)+1, 4)
	if _, err := tab.Reencrypt(mem, 2); !errors.Is(err, ErrVerification) {
		t.Errorf("re-encryption laundered corrupted data: %v", err)
	}
}

func TestReencryptUnverifiedTableStillWorks(t *testing.T) {
	// Enc-only tables re-encrypt without the integrity pass.
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(63)), 4, 32, 1<<20)
	tab, _ := s.EncryptTable(mem, geo, 1, rows)
	t2, err := tab.Reencrypt(mem, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := t2.DecryptRow(mem, 3)
	for j := range got {
		if got[j] != rows[3][j] {
			t.Fatal("data lost in unverified re-encryption")
		}
	}
}

func TestReencryptToRotatesKey(t *testing.T) {
	s1 := newTestScheme(t)
	s2, err := NewScheme([]byte("rotated-key-0001"))
	if err != nil {
		t.Fatal(err)
	}
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rows := boundedRows(rand.New(rand.NewSource(64)), 4, 32, 1<<20)
	t1, err := s1.EncryptTable(mem, geo, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Same version is fine under a different key.
	t2, err := t1.ReencryptTo(s2, mem, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := t2.QueryVerified(&HonestNDP{Mem: mem}, []int{1, 2}, []uint64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 32; j++ {
		if got[j] != (rows[1][j]+rows[2][j])&0xFFFFFFFF {
			t.Fatalf("data lost in key rotation at col %d", j)
		}
	}
	// The old scheme's handle no longer decrypts.
	stale := t1.DecryptRow(mem, 1)
	same := true
	for j := range stale {
		if stale[j] != rows[1][j] {
			same = false
		}
	}
	if same {
		t.Error("old key still decrypts after rotation")
	}
	// Same scheme + same version still rejected.
	if _, err := t2.ReencryptTo(s2, mem, 3); err == nil {
		t.Error("same-key same-version rotation accepted")
	}
}
