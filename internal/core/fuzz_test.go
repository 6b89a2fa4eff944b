package core

import (
	"errors"
	"testing"

	"secndp/internal/memory"
)

// Fuzz targets: run continuously with `go test -fuzz=FuzzX ./internal/core`;
// under plain `go test` the seed corpus exercises the invariants.

// FuzzEncryptDecryptRoundTrip: for any plaintext bytes (interpreted as ring
// elements) and version, decryption inverts encryption.
func FuzzEncryptDecryptRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint64(1))
	f.Add(make([]byte, 32), uint64(99))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
		13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28}, uint64(1<<40))
	f.Fuzz(func(t *testing.T, raw []byte, version uint64) {
		if len(raw) < 32 {
			return
		}
		version = version%(1<<40) + 1
		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(memory.TagNone, 1, 8, 32) // one row of 8 32-bit elems
		r := geo.ringOf()
		row := make([]uint64, 8)
		for j := 0; j < 8; j++ {
			var e uint64
			for b := 0; b < 4; b++ {
				e |= uint64(raw[j*4+b]) << (8 * b)
			}
			row[j] = r.Reduce(e)
		}
		mem := memory.NewSpace()
		tab, err := s.EncryptTable(mem, geo, version, [][]uint64{row})
		if err != nil {
			t.Fatal(err)
		}
		got := tab.DecryptRow(mem, 0)
		for j := range row {
			if got[j] != row[j] {
				t.Fatalf("round trip failed at %d: %d != %d", j, got[j], row[j])
			}
		}
	})
}

// FuzzVerifyRejectsTamper: any single-byte corruption of a queried row or
// its tag must be detected (or be a no-op write of the same value).
func FuzzVerifyRejectsTamper(f *testing.F) {
	f.Add(uint16(0), byte(1))
	f.Add(uint16(131), byte(0x80))
	f.Add(uint16(1000), byte(0xFF))
	f.Add(uint16(1151), byte(0x80)) // bit 127 of row 3's tag
	f.Fuzz(func(t *testing.T, pos uint16, xor byte) {
		if xor == 0 {
			return // no-op corruption
		}
		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(memory.TagSep, 4, 32, 32)
		mem := memory.NewSpace()
		rows := make([][]uint64, 4)
		for i := range rows {
			rows[i] = make([]uint64, 32)
			for j := range rows[i] {
				rows[i][j] = uint64(i*32 + j)
			}
		}
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt one byte somewhere in the queried rows' data or tags.
		span := 4*geo.Layout.RowBytes + 4*memory.TagBytes
		off := int(pos) % span
		var addr uint64
		if off < 4*geo.Layout.RowBytes {
			addr = geo.Layout.Base + uint64(off)
		} else {
			addr = geo.Layout.TagBase + uint64(off-4*geo.Layout.RowBytes)
		}
		if off >= 4*geo.Layout.RowBytes && off%memory.TagBytes == memory.TagBytes-1 && xor == 0x80 {
			// Bit 127 of a stored tag is not part of the tag: tags are
			// elements of GF(2^127−1) and field.FromBytes truncates the
			// 16 bytes to 127 bits, so flipping only that bit leaves the
			// authenticated value unchanged — a no-op corruption too.
			return
		}
		orig := mem.Snapshot(addr, 1)[0]
		mem.TamperWrite(addr, []byte{orig ^ xor})

		ndp := &HonestNDP{Mem: mem}
		_, err = tab.QueryVerified(ndp, []int{0, 1, 2, 3}, []uint64{1, 1, 1, 1})
		if !errors.Is(err, ErrVerification) {
			t.Fatalf("corruption at %#x (xor %#x) not rejected: %v", addr, xor, err)
		}
	})
}

// FuzzQueryLinearity: for arbitrary weights and indices, decryption of the
// NDP result always equals the plaintext ring computation (no verification,
// so wrap-around is fine).
func FuzzQueryLinearity(f *testing.F) {
	f.Add(uint64(1), uint64(2), byte(0), byte(1))
	f.Add(^uint64(0), uint64(1)<<63, byte(3), byte(3))
	f.Fuzz(func(t *testing.T, w1, w2 uint64, i1, i2 byte) {
		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(memory.TagNone, 4, 32, 32)
		r := geo.ringOf()
		mem := memory.NewSpace()
		rows := make([][]uint64, 4)
		for i := range rows {
			rows[i] = make([]uint64, 32)
			for j := range rows[i] {
				rows[i][j] = uint64(i) << uint(j%16)
			}
		}
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		idx := []int{int(i1) % 4, int(i2) % 4}
		w := []uint64{w1, w2}
		got, err := queryUnverified(tab, &HonestNDP{Mem: mem}, idx, w)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			want := r.Reduce(w1*rows[idx[0]][j] + w2*rows[idx[1]][j])
			if got[j] != want {
				t.Fatalf("col %d: %d != %d", j, got[j], want)
			}
		}
	})
}
