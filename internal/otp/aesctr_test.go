package otp

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// These tests pin the native keystream (aesctr.go, on whichever arm
// TestMain selected) to the standard library's CTR mode bit-for-bit:
// random keys, random IVs, lengths straddling the interleave and its tail
// steps. They skip on hardware without the fast path, where callers use
// stdlib CTR directly and there is nothing to cross-check.
// FuzzKeystreamArms compares the two arms with each other and with the
// standard library on every call.

// nativeKeystream fills dst (a multiple of 16 bytes) with the CTR
// keystream starting at the counter block iv, read as its two words.
func (g *Generator) nativeKeystream(dst []byte, iv *[BlockBytes]byte) {
	ctrKeystream(&g.rk[0], binary.BigEndian.Uint64(iv[:8]), binary.BigEndian.Uint64(iv[8:]), &dst[0], len(dst)/BlockBytes)
}

func TestNativeCTRMatchesStdlib(t *testing.T) {
	g, err := NewGenerator(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if !g.native {
		t.Skip("native CTR fast path not available on this CPU")
	}
	rng := rand.New(rand.NewSource(0x5ec9d9))
	for trial := 0; trial < 64; trial++ {
		key := make([]byte, KeySize)
		rng.Read(key)
		gen, err := NewGenerator(key)
		if err != nil {
			t.Fatal(err)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		var iv [BlockBytes]byte
		rng.Read(iv[:])
		// Keep the low counter limb far from wrap, as every caller does.
		iv[8], iv[9], iv[10], iv[11] = 0, 0, 0, 0

		nblocks := 1 + rng.Intn(40) // covers tail-only, mixed, multi-batch
		got := make([]byte, nblocks*BlockBytes)
		gen.nativeKeystream(got, &iv)

		want := make([]byte, len(got))
		cipher.NewCTR(block, iv[:]).XORKeyStream(want, make([]byte, len(want)))

		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: native keystream diverges from stdlib CTR (key %x, iv %x, %d blocks)",
				trial, key, iv, nblocks)
		}
	}
}

// TestExpandKey128MatchesStdlib checks the key schedule indirectly but
// exactly: one native single-block encryption of the zero counter must
// equal stdlib AES. A schedule bug of any kind — S-box generation, rcon,
// word order, serialization endianness — breaks this.
func TestExpandKey128MatchesStdlib(t *testing.T) {
	g, err := NewGenerator(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if !g.native {
		t.Skip("native CTR fast path not available on this CPU")
	}
	var iv [BlockBytes]byte
	var got [BlockBytes]byte
	g.nativeKeystream(got[:], &iv)
	var want [BlockBytes]byte
	g.block.Encrypt(want[:], iv[:])
	if got != want {
		t.Fatalf("expanded schedule disagrees with stdlib: E(0) = %x, want %x", got, want)
	}
}

// TestVAESGateSelectsKernel: the CPUID/XGETBV gate agrees with the
// kernel's own view of the CPU (vaes and avx2 in /proc/cpuinfo, which
// Linux clears when the OS does not save the YMM state), and the package
// selected the VAES arm whenever the gate reports support — so a broken
// gate cannot leave VAES hardware on the AES-NI arm unnoticed.
func TestVAESGateSelectsKernel(t *testing.T) {
	if vaesAtInit != supportsVAES() {
		t.Fatalf("useVAES started %v, gate reports %v", vaesAtInit, supportsVAES())
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the assembly kernels exist only on amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check the gate against: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = strings.Fields(line)
			break
		}
	}
	want := slices.Contains(flags, "vaes") && slices.Contains(flags, "avx2") && slices.Contains(flags, "aes")
	if supportsVAES() != want {
		t.Fatalf("gate reports VAES support %v, /proc/cpuinfo says vaes && avx2 && aes = %v", supportsVAES(), want)
	}
}

// FuzzKeystreamArms holds the two native arms to each other and to the
// standard library. For a random key, domain, version, byte address (chunk
// index up to 2^34−1, any low nibble) and a run of 1–130 blocks — so
// every 1–15-block tail follows every number of whole 16-block steps —
// PadsInto on the VAES arm, on the AES-NI arm and cipher.NewCTR over the
// run's counter block must give the same bytes. encryptBlocks on the same
// number of gathered counter blocks, out of place and in place, must equal
// crypto/aes block by block on both arms. Without VAES only the AES-NI arm
// is checked; without a native keystream there is nothing to compare.
func FuzzKeystreamArms(f *testing.F) {
	for n := uint8(1); n <= 33; n++ {
		f.Add(uint64(n)*0x9e3779b97f4a7c15, uint64(n), uint8(n), uint64(n)<<20, uint64(n)<<30, n)
	}
	f.Add(^uint64(0), ^uint64(0), uint8(3), MaxVersion, uint64(1)<<34-1, uint8(1))
	f.Add(uint64(7), uint64(9), uint8(2), uint64(0), uint64(1)<<34-130, uint8(129))
	f.Fuzz(func(t *testing.T, k0, k1 uint64, dom uint8, version, addr uint64, n uint8) {
		if !supportsNativeCTR() {
			t.Skip("no native keystream on this CPU")
		}
		var key [KeySize]byte
		binary.LittleEndian.PutUint64(key[:8], k0)
		binary.LittleEndian.PutUint64(key[8:], k1)
		g, err := NewGenerator(key[:])
		if err != nil {
			t.Fatal(err)
		}
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		d, nb := Domain(dom%3), 1+int(n)%130
		version &= MaxVersion
		// Keep the run inside the 38-bit address space: its last chunk
		// index is at most 2^34−1.
		addr &= MaxAddr
		if last := MaxAddr &^ 0xF; addr&^0xF > last-uint64(nb-1)*BlockBytes {
			addr = last - uint64(nb-1)*BlockBytes | addr&0xF
		}

		iv := counterBlock(d, addr, version)
		want := make([]byte, nb*BlockBytes)
		cipher.NewCTR(block, iv[:]).XORKeyStream(want, want)
		src := make([]byte, nb*BlockBytes)
		for i := range nb {
			c := counterBlock(Domain(i%3), (addr+uint64(i)*0x3b0)&MaxAddr, version^uint64(i))
			copy(src[i*BlockBytes:], c[:])
		}
		wantECB := make([]byte, len(src))
		for i := 0; i < len(src); i += BlockBytes {
			block.Encrypt(wantECB[i:i+BlockBytes], src[i:i+BlockBytes])
		}

		defer func(arm bool) { useVAES = arm }(useVAES)
		for _, arm := range []bool{true, false} {
			if arm && !supportsVAES() {
				continue
			}
			useVAES = arm
			got := make([]byte, nb*BlockBytes)
			g.PadsInto(got, d, addr, version)
			if !bytes.Equal(got, want) {
				t.Fatalf("vaes=%v: %d-block run at %#x/v%#x, domain %d diverges from cipher.NewCTR", arm, nb, addr, version, d)
			}
			ecb := make([]byte, len(src))
			encryptBlocks(&g.rk[0], &src[0], &ecb[0], nb)
			if !bytes.Equal(ecb, wantECB) {
				t.Fatalf("vaes=%v: encryptBlocks over %d gathered counters diverges from crypto/aes", arm, nb)
			}
			inPlace := slices.Clone(src)
			encryptBlocks(&g.rk[0], &inPlace[0], &inPlace[0], nb)
			if !bytes.Equal(inPlace, wantECB) {
				t.Fatalf("vaes=%v: in-place encryptBlocks over %d blocks diverges from crypto/aes", arm, nb)
			}
		}
	})
}
