package core

import (
	"bytes"
	"math/rand"
	"testing"

	"secndp/internal/memory"
	"secndp/internal/ring"
)

var testKey = []byte("k0k1k2k3k4k5k6k7")

func newTestScheme(t *testing.T) *Scheme {
	t.Helper()
	s, err := NewScheme(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mkGeometry builds a standard test geometry: n rows of m we-bit elements
// at base 0x10000, Ver-sep tags at 0x800000 when a placement is given.
func mkGeometry(placement memory.TagPlacement, n, m int, we uint) Geometry {
	return Geometry{
		Layout: memory.Layout{
			Placement: placement,
			Base:      0x10000,
			TagBase:   0x800000,
			NumRows:   n,
			RowBytes:  m * int(we) / 8,
		},
		Params: Params{We: we, M: m},
	}
}

func randRows(rng *rand.Rand, r ring.Ring, n, m int) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = r.Reduce(rng.Uint64())
		}
	}
	return rows
}

func TestNewSchemeRejectsBadKey(t *testing.T) {
	if _, err := NewScheme([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{We: 32, M: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{We: 12, M: 32}, // non-power width
		{We: 32, M: 0},  // empty rows
		{We: 8, M: 7},   // 7 bytes per row: not a block multiple
		{We: 32, M: 2},  // 8 bytes per row: not a block multiple
		{We: 32, M: 32, ChecksumSubstrings: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	g := mkGeometry(memory.TagSep, 4, 32, 32)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	g2 := g
	g2.Layout.RowBytes = 64 // disagrees with params
	if err := g2.Validate(); err == nil {
		t.Error("row-size mismatch accepted")
	}
	g3 := g
	g3.Layout.Base = 0x10001 // unaligned base
	if err := g3.Validate(); err == nil {
		t.Error("unaligned base accepted")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, we := range []uint{8, 16, 32, 64} {
		s := newTestScheme(t)
		mem := memory.NewSpace()
		geo := mkGeometry(memory.TagNone, 8, 32, we)
		rng := rand.New(rand.NewSource(int64(we)))
		rows := randRows(rng, geo.ringOf(), 8, 32)
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatalf("we=%d: %v", we, err)
		}
		for i := range rows {
			got := tab.DecryptRow(mem, i)
			for j := range got {
				if got[j] != rows[i][j] {
					t.Fatalf("we=%d row %d col %d: decrypt %d != plaintext %d",
						we, i, j, got[j], rows[i][j])
				}
			}
		}
	}
}

// The share property E + C = P (§IV-B): ciphertext plus regenerated pad
// reconstructs the plaintext element-wise.
func TestSharePropertyElementwise(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 4, 32, 32)
	r := geo.ringOf()
	rng := rand.New(rand.NewSource(1))
	rows := randRows(rng, r, 4, 32)
	tab, err := s.EncryptTable(mem, geo, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		ct := r.UnpackElems(geo.Layout.ReadRow(mem, i))
		pad := tab.padRow(i)
		for j := range ct {
			if r.Add(ct[j], pad[j]) != rows[i][j] {
				t.Fatalf("row %d col %d: C+E != P", i, j)
			}
		}
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 1, 32, 32)
	r := geo.ringOf()
	row := make([]uint64, 32) // all-zero plaintext
	if _, err := s.EncryptTable(mem, geo, 1, [][]uint64{row}); err != nil {
		t.Fatal(err)
	}
	ct := geo.Layout.ReadRow(mem, 0)
	if bytes.Equal(ct, make([]byte, len(ct))) {
		t.Error("ciphertext of zero plaintext is zero — no encryption happened")
	}
	_ = r
}

// Different versions must produce unrelated ciphertexts for the same
// plaintext and address — the property version uniqueness buys (§III-B).
func TestVersionChangesCiphertext(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagNone, 1, 32, 32)
	rng := rand.New(rand.NewSource(2))
	rows := randRows(rng, geo.ringOf(), 1, 32)

	mem1, mem2 := memory.NewSpace(), memory.NewSpace()
	if _, err := s.EncryptTable(mem1, geo, 1, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EncryptTable(mem2, geo, 2, rows); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(geo.Layout.ReadRow(mem1, 0), geo.Layout.ReadRow(mem2, 0)) {
		t.Error("same ciphertext under two versions")
	}
}

func TestEncryptTableIsDeterministic(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 2, 32, 32)
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, geo.ringOf(), 2, 32)
	mem1, mem2 := memory.NewSpace(), memory.NewSpace()
	if _, err := s.EncryptTable(mem1, geo, 5, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EncryptTable(mem2, geo, 5, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(geo.Layout.ReadRow(mem1, 1), geo.Layout.ReadRow(mem2, 1)) {
		t.Error("encryption is not deterministic for fixed (key, addr, version)")
	}
	if !bytes.Equal(geo.Layout.ReadTag(mem1, 1), geo.Layout.ReadTag(mem2, 1)) {
		t.Error("tags are not deterministic")
	}
}

func TestEncryptTableValidations(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 2, 32, 32)
	rows := randRows(rand.New(rand.NewSource(4)), geo.ringOf(), 2, 32)

	if _, err := s.EncryptTable(mem, geo, 0, rows); err == nil {
		t.Error("version 0 accepted")
	}
	if _, err := s.EncryptTable(mem, geo, 1, rows[:1]); err == nil {
		t.Error("row-count mismatch accepted")
	}
	short := [][]uint64{rows[0], rows[1][:31]}
	if _, err := s.EncryptTable(mem, geo, 1, short); err == nil {
		t.Error("short row accepted")
	}
}

func TestOpenTableMatchesEncrypt(t *testing.T) {
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, 4, 32, 32)
	rng := rand.New(rand.NewSource(5))
	rows := randRows(rng, geo.ringOf(), 4, 32)
	t1, err := s.EncryptTable(mem, geo, 7, rows)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.OpenTable(geo, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Handles derived independently must agree on pads and seeds.
	for i := 0; i < 4; i++ {
		p1, p2 := t1.padRow(i), t2.padRow(i)
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("OpenTable pad mismatch at row %d", i)
			}
		}
	}
	if !t1.seeds[0].Equal(t2.seeds[0]) {
		t.Error("OpenTable seed mismatch")
	}
	if t2.Version() != 7 || t2.Geometry().Params.M != 32 {
		t.Error("accessors wrong")
	}
}

func TestOpenTableValidates(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagNone, 1, 32, 32)
	if _, err := s.OpenTable(geo, 0); err == nil {
		t.Error("version 0 accepted by OpenTable")
	}
	bad := geo
	bad.Params.M = 0
	if _, err := s.OpenTable(bad, 1); err == nil {
		t.Error("invalid geometry accepted by OpenTable")
	}
}

// Keys must matter: a table opened under a different key decrypts garbage.
func TestWrongKeyDecryptsGarbage(t *testing.T) {
	s1 := newTestScheme(t)
	s2, err := NewScheme([]byte("A DIFFERENT KEY!"))
	if err != nil {
		t.Fatal(err)
	}
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagNone, 1, 32, 32)
	rng := rand.New(rand.NewSource(6))
	rows := randRows(rng, geo.ringOf(), 1, 32)
	if _, err := s1.EncryptTable(mem, geo, 1, rows); err != nil {
		t.Fatal(err)
	}
	t2, err := s2.OpenTable(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := t2.DecryptRow(mem, 0)
	same := 0
	for j := range got {
		if got[j] == rows[0][j] {
			same++
		}
	}
	if same == len(got) {
		t.Error("wrong key decrypted the whole row correctly")
	}
}

// A crude CPA-style smoke test: ciphertexts of two chosen plaintexts (all
// zeros vs all ones) should not be distinguishable by trivial statistics —
// here, both should have roughly balanced bits.
func TestCiphertextBitBalance(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagNone, 64, 32, 32)
	zero := make([][]uint64, 64)
	ones := make([][]uint64, 64)
	for i := range zero {
		zero[i] = make([]uint64, 32)
		ones[i] = make([]uint64, 32)
		for j := range ones[i] {
			ones[i][j] = geo.ringOf().Mask()
		}
	}
	for name, rows := range map[string][][]uint64{"zeros": zero, "ones": ones} {
		mem := memory.NewSpace()
		if _, err := s.EncryptTable(mem, geo, 1, rows); err != nil {
			t.Fatal(err)
		}
		onesCount, total := 0, 0
		for i := 0; i < 64; i++ {
			for _, b := range geo.Layout.ReadRow(mem, i) {
				for k := 0; k < 8; k++ {
					onesCount += int(b>>k) & 1
					total++
				}
			}
		}
		frac := float64(onesCount) / float64(total)
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("%s plaintext: ciphertext bit balance %.3f far from 0.5", name, frac)
		}
	}
}

// TestEncryptTableBadRow: a short row anywhere in the table is rejected
// before any byte is written.
func TestEncryptTableBadRow(t *testing.T) {
	s := newTestScheme(t)
	geo := mkGeometry(memory.TagSep, 1024, 32, 32)
	rows := randRows(rand.New(rand.NewSource(71)), geo.ringOf(), 1024, 32)
	rows[700] = rows[700][:7]
	mem := memory.NewSpace()
	if _, err := s.EncryptTable(mem, geo, 1, rows); err == nil {
		t.Fatal("short row accepted")
	}
	if st := mem.Stats(); st != (memory.Stats{}) {
		t.Errorf("rejected table wrote to memory: %+v", st)
	}
}
