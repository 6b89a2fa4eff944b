package ring

import (
	"flag"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// accumAsmAtInit is the arm the package selected before any test ran.
var accumAsmAtInit = useAccumAsm

// TestMain runs every test of the package twice on a CPU with the AVX2
// multiply-accumulate: once on it and once on the Go loops. Fuzzing and
// benchmark runs (-fuzz, -bench) take the first arm only, so they report
// one set of results per name.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && useAccumAsm && flag.Lookup("test.fuzz").Value.String() == "" &&
		flag.Lookup("test.bench").Value.String() == "" {
		useAccumAsm = false
		code = m.Run()
	}
	os.Exit(code)
}

// TestAccumGateSelectsAsm: the CPUID/XGETBV gate agrees with the kernel's
// own view of the CPU (the avx2 flag in /proc/cpuinfo, which Linux clears
// when the OS does not save the YMM state), and the package selected the
// assembly whenever the gate reports support — so a broken gate cannot
// leave AVX2 hardware on the Go loops unnoticed.
func TestAccumGateSelectsAsm(t *testing.T) {
	if accumAsmAtInit != supportsAccumAsm() {
		t.Fatalf("useAccumAsm started %v, gate reports %v", accumAsmAtInit, supportsAccumAsm())
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the assembly kernel exists only on amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check the gate against: %v", err)
	}
	hasAVX2 := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			hasAVX2 = slices.Contains(strings.Fields(line), "avx2")
			break
		}
	}
	if supportsAccumAsm() != hasAVX2 {
		t.Fatalf("gate reports AVX2 support %v, /proc/cpuinfo says %v", supportsAccumAsm(), hasAVX2)
	}
}

// FuzzScaleAccumBytes pins ScaleAccumBytes on the selected arm — the
// assembly, where the CPU has it — to the Go loop: every width, 0–300
// lanes (every tail length past the eight-lane step), data at any offset
// into its buffer (odd ones included), any 64-bit weight, and dst words
// that are not reduced into the ring.
func FuzzScaleAccumBytes(f *testing.F) {
	for sel := uint8(0); sel < 4; sel++ {
		for _, lanes := range []uint16{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300} {
			f.Add(sel, lanes, uint8(lanes), ^uint64(0)-uint64(lanes), int64(lanes)*7+int64(sel))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, lanes uint16, off uint8, w uint64, seed int64) {
		r := MustNew([]uint{8, 16, 32, 64}[sel%4])
		m, eb, o := int(lanes)%301, r.Bytes(), int(off%16)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, o+m*eb)
		rng.Read(buf)
		data := buf[o:]
		want := make([]uint64, m)
		for j := range want {
			want[j] = rng.Uint64()
		}
		got := slices.Clone(want)
		scaleAccumBytesGeneric(want, w, data, eb, r.Mask())
		r.ScaleAccumBytes(got, w, data)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("we=%d m=%d off=%d w=%#x (asm %v): lane %d = %#x, Go loop %#x",
					r.Width(), m, o, w, useAccumAsm, j, got[j], want[j])
			}
		}
	})
}

// BenchmarkScaleAccumBytes times one 256-byte row per op on each width,
// on the assembly (where the CPU has it) and on the Go loops.
func BenchmarkScaleAccumBytes(b *testing.B) {
	defer func(asm bool) { useAccumAsm = asm }(useAccumAsm)
	for _, arm := range []struct {
		name string
		asm  bool
	}{{"avx2", true}, {"go", false}} {
		if arm.asm && !supportsAccumAsm() {
			continue
		}
		for _, we := range []uint{8, 16, 32, 64} {
			b.Run(arm.name+"/"+MustNew(we).String(), func(b *testing.B) {
				useAccumAsm = arm.asm
				r := MustNew(we)
				data := make([]byte, 256)
				rand.New(rand.NewSource(1)).Read(data)
				acc := make([]uint64, len(data)/r.Bytes())
				for i := 0; i < b.N; i++ {
					r.ScaleAccumBytes(acc, uint64(i)|1, data)
				}
			})
		}
	}
}
