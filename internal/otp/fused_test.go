package otp

import (
	"bytes"
	"testing"
)

// refPads generates pads one Block call at a time — the pre-CTR reference
// path every multi-block optimization must match bit-for-bit.
func refPads(g *Generator, d Domain, addr, version uint64, n int) []byte {
	out := make([]byte, n*BlockBytes)
	for i := 0; i < n; i++ {
		b := g.Block(d, addr+uint64(i*BlockBytes), version)
		copy(out[i*BlockBytes:], b[:])
	}
	return out
}

// refUnpack decodes little-endian we-bit lanes — mirrors ring.UnpackElems
// without calling into ring, so the reference shares no code with the
// ring kernel the fused paths accumulate through.
func refUnpack(data []byte, we uint) []uint64 {
	eb := int(we) / 8
	out := make([]uint64, len(data)/eb)
	for i := range out {
		var e uint64
		for b := 0; b < eb; b++ {
			e |= uint64(data[i*eb+b]) << (8 * b)
		}
		out[i] = e
	}
	return out
}

var fusedWidths = []uint{8, 16, 32, 64}

func maskOf(we uint) uint64 {
	if we == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << we) - 1
}

// TestPadsIntoMatchesBlocks pins the CTR fast path (and the small-run
// per-block path) to the single-block reference across sizes straddling
// the ctrMinBytes crossover, at aligned and unaligned start addresses.
func TestPadsIntoMatchesBlocks(t *testing.T) {
	g := mustGen(t)
	for _, n := range []int{1, 2, 7, 8, 9, 16, 64, 257} {
		for _, addr := range []uint64{0, 16, 0x1000, 0x1003, MaxAddr - uint64(n)*16 + 1} {
			want := refPads(g, DomainData, addr, 9, n)
			got := make([]byte, n*BlockBytes)
			g.PadsInto(got, DomainData, addr, 9)
			if !bytes.Equal(got, want) {
				t.Fatalf("PadsInto(n=%d, addr=%#x) diverges from per-block reference", n, addr)
			}
		}
	}
}

func TestPadsIntoRejectsOutOfRangeRun(t *testing.T) {
	g := mustGen(t)
	defer func() {
		if recover() == nil {
			t.Fatal("run past MaxAddr did not panic")
		}
	}()
	g.PadsInto(make([]byte, 64), DomainData, MaxAddr-15, 1)
}

func TestXORPadsRoundTrip(t *testing.T) {
	g := mustGen(t)
	for _, n := range []int{16, 64, 128, 512, 272, 1040} {
		plain := make([]byte, n)
		for i := range plain {
			plain[i] = byte(i*7 + 3)
		}
		ct := make([]byte, n)
		g.XORPads(ct, plain, DomainData, 0x40, 5)
		want := g.Pads(DomainData, 0x40, 5, n/BlockBytes)
		for i := range ct {
			if ct[i] != (plain[i] ^ want[i]) {
				t.Fatalf("n=%d: XORPads byte %d is not plain⊕pad", n, i)
			}
		}
		back := make([]byte, n)
		g.XORPads(back, ct, DomainData, 0x40, 5)
		if !bytes.Equal(back, plain) {
			t.Fatalf("n=%d: XORPads round trip failed", n)
		}
	}
}

func TestFusedScaleAccumMatchesTwoPass(t *testing.T) {
	g := mustGen(t)
	for _, we := range fusedWidths {
		m := 256 / int(we) * 8 // 256 bytes of pads
		mask := maskOf(we)
		want := make([]uint64, m)
		for j := range want {
			want[j] = uint64(j*13+1) & mask
		}
		got := append([]uint64(nil), want...)
		pads := refUnpack(refPads(g, DomainData, 0x500, 3, 256/BlockBytes), we)
		const w = 0xA5
		for j := range want {
			want[j] = (want[j] + w*pads[j]) & mask
		}
		g.PadScaleAccum(got, w, we, DomainData, 0x500, 3)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("we=%d: fused scale-accum lane %d = %#x, want %#x", we, j, got[j], want[j])
			}
		}
	}
}

func TestFusedSubAddRoundTrip(t *testing.T) {
	g := mustGen(t)
	for _, we := range fusedWidths {
		m := 512 / int(we) * 8
		mask := maskOf(we)
		row := make([]uint64, m)
		for j := range row {
			// Unreduced on purpose: PadSubPack must reduce first.
			row[j] = uint64(j)*0x9E3779B97F4A7C15 + 11
		}
		ct := make([]byte, 512)
		g.PadSubPack(ct, row, we, DomainData, 0x2000, 77)

		// Reference: two-pass subtract over unpacked pads.
		pads := refUnpack(refPads(g, DomainData, 0x2000, 77, 512/BlockBytes), we)
		wantCT := make([]uint64, m)
		for j := range wantCT {
			wantCT[j] = (row[j] - pads[j]) & mask
		}
		if gotCT := refUnpack(ct, we); !equalU64(gotCT, wantCT) {
			t.Fatalf("we=%d: fused encrypt diverges from two-pass reference", we)
		}

		back := make([]uint64, m)
		g.PadAddUnpack(back, ct, we, DomainData, 0x2000, 77)
		for j := range back {
			if back[j] != row[j]&mask {
				t.Fatalf("we=%d: decrypt lane %d = %#x, want %#x", we, j, back[j], row[j]&mask)
			}
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKeystreamMatchesRandomAccess drives the sequential engine — pads,
// fused ops, and gap skips — and checks every byte against the
// random-access generator.
func TestKeystreamMatchesRandomAccess(t *testing.T) {
	g := mustGen(t)
	const base, version = 0x800, 21
	ks := g.Keystream(DomainData, base, version)

	buf := make([]byte, 96)
	ks.PadsInto(buf)
	if want := g.Pads(DomainData, base, version, 6); !bytes.Equal(buf, want) {
		t.Fatal("sequential PadsInto diverges from random access")
	}

	ks.Skip(32) // e.g. a tag gap
	if ks.Addr() != base+128 {
		t.Fatalf("Addr after skip = %#x, want %#x", ks.Addr(), base+128)
	}

	acc := make([]uint64, 8)
	accWant := make([]uint64, 8)
	pads := refUnpack(refPads(g, DomainData, base+128, version, 4), 64)
	for j := range accWant {
		accWant[j] = 5 * pads[j]
	}
	ks.ScaleAccum(acc, 5, 64)
	if !equalU64(acc, accWant) {
		t.Fatal("sequential ScaleAccum diverges from random access")
	}

	row := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	ct := make([]byte, 64)
	ks.SubPack(ct, row, 64)
	wantCT := make([]byte, 64)
	g.PadSubPack(wantCT, row, 64, DomainData, base+192, version)
	if !bytes.Equal(ct, wantCT) {
		t.Fatal("sequential SubPack diverges from random access")
	}

	dst := make([]uint64, 8)
	ctNext := make([]byte, 64)
	ks.AddUnpack(dst, ctNext, 64)
	wantDst := refUnpack(refPads(g, DomainData, base+256, version, 4), 64)
	if !equalU64(dst, wantDst) {
		t.Fatal("sequential AddUnpack diverges from random access")
	}
}

func TestKeystreamRejectsUnalignedStart(t *testing.T) {
	g := mustGen(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Keystream start did not panic")
		}
	}()
	g.Keystream(DomainData, 8, 1)
}

// TestElemPadMatchesHandRolledLoop pins the binary-decode lane extraction
// to the original byte-shift loop for all four element widths.
func TestElemPadMatchesHandRolledLoop(t *testing.T) {
	g := mustGen(t)
	for _, we := range fusedWidths {
		eb := uint64(we / 8)
		for _, chunk := range []uint64{0, 0x7F0, MaxAddr & ^uint64(15)} {
			pad := g.Block(DomainData, chunk, 6)
			for idx := uint64(0); idx+eb <= BlockBytes; idx += eb {
				var want uint64
				for b := uint64(0); b < eb; b++ {
					want |= uint64(pad[idx+b]) << (8 * b)
				}
				if got := g.ElemPad(chunk+idx, 6, we); got != want {
					t.Errorf("we=%d chunk=%#x lane %d: ElemPad = %#x, want %#x", we, chunk, idx/eb, got, want)
				}
			}
		}
	}
}
