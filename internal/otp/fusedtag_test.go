package otp

import (
	"bytes"
	"math/rand"
	"testing"
)

// The fused tag+pad kernels must be bit-identical to the public
// single-row primitives (TagPad, PadScaleAccum) on every engine: the
// native encryptBlocks walk (on the AES arm TestMain selected) and the
// cipher.Block fallback.

func testGenerator(t testing.TB) *Generator {
	t.Helper()
	g, err := NewGenerator([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// forEachEngine runs fn against the generator's available engines,
// flipping native off to exercise the fallback on AES-NI hardware.
func forEachEngine(t *testing.T, fn func(t *testing.T, g *Generator)) {
	g := testGenerator(t)
	if g.native {
		t.Run("native", func(t *testing.T) { fn(t, g) })
		gf := testGenerator(t)
		gf.native = false
		t.Run("fallback", func(t *testing.T) { fn(t, gf) })
		return
	}
	t.Run("fallback", func(t *testing.T) { fn(t, g) })
}

func TestEncryptBlocksMatchesCipherBlock(t *testing.T) {
	g := testGenerator(t)
	if !g.native {
		t.Skip("native block encryption not available on this CPU")
	}
	rng := rand.New(rand.NewSource(11))
	for _, nblocks := range []int{1, 2, 7, 8, 9, 16, 17, 33} {
		src := make([]byte, nblocks*BlockBytes)
		rng.Read(src)
		got := make([]byte, len(src))
		encryptBlocks(&g.rk[0], &src[0], &got[0], nblocks)
		want := make([]byte, len(src))
		for i := 0; i < len(src); i += BlockBytes {
			g.block.Encrypt(want[i:i+BlockBytes], src[i:i+BlockBytes])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("nblocks=%d: encryptBlocks diverges from cipher.Block", nblocks)
		}
		// In-place: dst aliasing src exactly must give the same answer.
		encryptBlocks(&g.rk[0], &src[0], &src[0], nblocks)
		if !bytes.Equal(src, want) {
			t.Fatalf("nblocks=%d: in-place encryptBlocks diverges", nblocks)
		}
	}
}

func TestTagPadsMatchesTagPad(t *testing.T) {
	forEachEngine(t, func(t *testing.T, g *Generator) {
		rng := rand.New(rand.NewSource(12))
		for _, n := range []int{1, 3, 8, 9, 40} {
			addrs := make([]uint64, n)
			for i := range addrs {
				addrs[i] = rng.Uint64() % (MaxAddr - 256)
			}
			version := uint64(7)
			dst := make([]byte, n*BlockBytes)
			g.TagPads(dst, addrs, version)
			for i, addr := range addrs {
				want := g.TagPad(addr, version)
				if !bytes.Equal(dst[i*BlockBytes:(i+1)*BlockBytes], want[:]) {
					t.Fatalf("n=%d: TagPads[%d] diverges from TagPad(%#x)", n, i, addr)
				}
			}
		}
	})
}

func TestPadTagScaleAccumMatchesReference(t *testing.T) {
	forEachEngine(t, func(t *testing.T, g *Generator) {
		rng := rand.New(rand.NewSource(13))
		for _, we := range []uint{8, 16, 32, 64} {
			for _, m := range []int{16, 64, 128} {
				if m*int(we)/8%BlockBytes != 0 {
					continue
				}
				rowBytes := m * int(we) / 8
				for _, rows := range []int{1, 2, 5, 17} {
					weights := make([]uint64, rows)
					addrs := make([]uint64, rows)
					for i := range addrs {
						weights[i] = rng.Uint64()
						addrs[i] = rng.Uint64() % (MaxAddr - uint64(rowBytes) - 16)
					}
					version := uint64(3)
					acc := make([]uint64, m)
					ref := make([]uint64, m)
					for j := range acc {
						v := rng.Uint64() & (laneMask(we))
						acc[j], ref[j] = v, v
					}
					tagPads := make([]byte, rows*BlockBytes)
					g.PadTagScaleAccum(acc, we, weights, addrs, version, tagPads)
					for r := range addrs {
						g.PadScaleAccum(ref, weights[r], we, DomainData, addrs[r], version)
						want := g.TagPad(addrs[r], version)
						if !bytes.Equal(tagPads[r*BlockBytes:(r+1)*BlockBytes], want[:]) {
							t.Fatalf("we=%d m=%d rows=%d: tag pad %d diverges", we, m, rows, r)
						}
					}
					for j := range acc {
						if acc[j] != ref[j] {
							t.Fatalf("we=%d m=%d rows=%d: acc[%d] = %#x, reference %#x", we, m, rows, j, acc[j], ref[j])
						}
					}
				}
			}
		}
	})
}

func BenchmarkTagPads512(b *testing.B) {
	g := testGenerator(b)
	addrs := make([]uint64, 512)
	rng := rand.New(rand.NewSource(14))
	for i := range addrs {
		addrs[i] = rng.Uint64() % (MaxAddr - 256)
	}
	dst := make([]byte, len(addrs)*BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TagPads(dst, addrs, 1)
	}
}

func BenchmarkTagPadSerial512(b *testing.B) {
	g := testGenerator(b)
	addrs := make([]uint64, 512)
	rng := rand.New(rand.NewSource(14))
	for i := range addrs {
		addrs[i] = rng.Uint64() % (MaxAddr - 256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			_ = g.TagPad(a, 1)
		}
	}
}

func BenchmarkPadTagScaleAccum(b *testing.B) {
	g := testGenerator(b)
	const m, we, rows = 64, 32, 512
	rng := rand.New(rand.NewSource(15))
	acc := make([]uint64, m)
	weights := make([]uint64, rows)
	addrs := make([]uint64, rows)
	for i := range addrs {
		weights[i] = rng.Uint64()
		addrs[i] = rng.Uint64() % (MaxAddr - 4096)
	}
	tagPads := make([]byte, rows*BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PadTagScaleAccum(acc, we, weights, addrs, 1, tagPads)
	}
}
