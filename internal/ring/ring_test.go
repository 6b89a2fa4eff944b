package ring

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidWidths(t *testing.T) {
	for _, we := range []uint{1, 7, 8, 16, 32, 63, 64} {
		r, err := New(we)
		if err != nil {
			t.Fatalf("New(%d): %v", we, err)
		}
		if r.Width() != we {
			t.Errorf("Width() = %d, want %d", r.Width(), we)
		}
	}
}

func TestNewInvalidWidths(t *testing.T) {
	for _, we := range []uint{0, 65, 128} {
		if _, err := New(we); err == nil {
			t.Errorf("New(%d): expected error", we)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestMask(t *testing.T) {
	cases := map[uint]uint64{
		8:  0xFF,
		16: 0xFFFF,
		32: 0xFFFFFFFF,
		64: ^uint64(0),
	}
	for we, want := range cases {
		if got := MustNew(we).Mask(); got != want {
			t.Errorf("Mask(%d) = %#x, want %#x", we, got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	if got := MustNew(8).Bytes(); got != 1 {
		t.Errorf("Bytes(8) = %d, want 1", got)
	}
	if got := MustNew(32).Bytes(); got != 4 {
		t.Errorf("Bytes(32) = %d, want 4", got)
	}
	if got := MustNew(12).Bytes(); got != 2 {
		t.Errorf("Bytes(12) = %d, want 2 (round up)", got)
	}
}

func TestAddSubIdentity(t *testing.T) {
	r := MustNew(8)
	if got := r.Add(200, 100); got != 44 {
		t.Errorf("Add(200,100) mod 256 = %d, want 44", got)
	}
	if got := r.Sub(10, 20); got != 246 {
		t.Errorf("Sub(10,20) mod 256 = %d, want 246", got)
	}
	if got := r.Mul(16, 16); got != 0 {
		t.Errorf("Mul(16,16) mod 256 = %d, want 0", got)
	}
}

// Property: Sub is the inverse of Add — (a+b)-b == a in the ring.
func TestAddSubInverseProperty(t *testing.T) {
	for _, we := range []uint{8, 16, 32, 64} {
		r := MustNew(we)
		f := func(a, b uint64) bool {
			a = r.Reduce(a)
			return r.Sub(r.Add(a, b), b) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("we=%d: %v", we, err)
		}
	}
}

// Property: the secret-sharing identity of Algorithm 1 — for any plaintext p
// and pad e, c := p ⊖ e satisfies c ⊕ e = p.
func TestShareReconstructionProperty(t *testing.T) {
	r := MustNew(32)
	f := func(p, e uint64) bool {
		c := r.Sub(p, e)
		return r.Add(c, e) == r.Reduce(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: multiplication distributes over addition.
func TestDistributivityProperty(t *testing.T) {
	r := MustNew(16)
	f := func(a, x, y uint64) bool {
		return r.Mul(a, r.Add(x, y)) == r.Add(r.Mul(a, x), r.Mul(a, y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Neg(a) + a == 0.
func TestNegProperty(t *testing.T) {
	r := MustNew(8)
	f := func(a uint64) bool { return r.Add(r.Neg(a), a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedRoundTrip(t *testing.T) {
	r := MustNew(8)
	for v := int64(-128); v <= 127; v++ {
		if got := r.ToSigned(r.FromSigned(v)); got != v {
			t.Fatalf("signed round trip %d -> %d", v, got)
		}
	}
}

func TestToSignedBoundary(t *testing.T) {
	r := MustNew(8)
	if got := r.ToSigned(0x80); got != -128 {
		t.Errorf("ToSigned(0x80) = %d, want -128", got)
	}
	if got := r.ToSigned(0x7F); got != 127 {
		t.Errorf("ToSigned(0x7F) = %d, want 127", got)
	}
	r64 := MustNew(64)
	if got := r64.ToSigned(^uint64(0)); got != -1 {
		t.Errorf("64-bit ToSigned(all ones) = %d, want -1", got)
	}
}

func TestVecOps(t *testing.T) {
	r := MustNew(8)
	a := []uint64{1, 2, 250}
	b := []uint64{10, 20, 10}
	dst := make([]uint64, 3)
	r.AddVec(dst, a, b)
	want := []uint64{11, 22, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("AddVec[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	r.SubVec(dst, dst, b)
	for i := range a {
		if dst[i] != a[i] {
			t.Errorf("SubVec[%d] = %d, want %d", i, dst[i], a[i])
		}
	}
}

func TestVecOpsPanicOnMismatch(t *testing.T) {
	r := MustNew(8)
	defer func() {
		if recover() == nil {
			t.Fatal("AddVec with mismatched lengths did not panic")
		}
	}()
	r.AddVec(make([]uint64, 2), make([]uint64, 3), make([]uint64, 3))
}

func TestScaleAccum(t *testing.T) {
	r := MustNew(16)
	dst := []uint64{1, 1}
	r.ScaleAccum(dst, 3, []uint64{10, 100})
	if dst[0] != 31 || dst[1] != 301 {
		t.Errorf("ScaleAccum = %v, want [31 301]", dst)
	}
}

func TestDot(t *testing.T) {
	r := MustNew(32)
	got := r.Dot([]uint64{1, 2, 3}, []uint64{4, 5, 6})
	if got != 32 {
		t.Errorf("Dot = %d, want 32", got)
	}
}

func TestWeightedSum(t *testing.T) {
	r := MustNew(32)
	rows := [][]uint64{{1, 2}, {3, 4}}
	res := r.WeightedSum([]uint64{2, 10}, rows)
	if res[0] != 32 || res[1] != 44 {
		t.Errorf("WeightedSum = %v, want [32 44]", res)
	}
}

func TestWeightedSumEmpty(t *testing.T) {
	r := MustNew(32)
	if res := r.WeightedSum(nil, nil); res != nil {
		t.Errorf("WeightedSum(nil) = %v, want nil", res)
	}
}

// Property: the linearity that SecNDP exploits — a weighted sum of shares
// equals the share of the weighted sum, column-wise.
func TestWeightedSumLinearityProperty(t *testing.T) {
	r := MustNew(32)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n, m := 1+rng.Intn(8), 1+rng.Intn(8)
		p := make([][]uint64, n) // plaintext rows
		e := make([][]uint64, n) // pad rows
		c := make([][]uint64, n) // ciphertext rows
		w := make([]uint64, n)
		for i := 0; i < n; i++ {
			w[i] = uint64(rng.Intn(1000))
			p[i] = make([]uint64, m)
			e[i] = make([]uint64, m)
			c[i] = make([]uint64, m)
			for j := 0; j < m; j++ {
				p[i][j] = r.Reduce(rng.Uint64())
				e[i][j] = r.Reduce(rng.Uint64())
				c[i][j] = r.Sub(p[i][j], e[i][j])
			}
		}
		cres := r.WeightedSum(w, c)
		eres := r.WeightedSum(w, e)
		pres := r.WeightedSum(w, p)
		for j := 0; j < m; j++ {
			if r.Add(cres[j], eres[j]) != pres[j] {
				t.Fatalf("trial %d col %d: share sum %d != plaintext sum %d",
					trial, j, r.Add(cres[j], eres[j]), pres[j])
			}
		}
	}
}

func TestWeightedSumExactNoOverflow(t *testing.T) {
	r := MustNew(8)
	res, ovf := r.WeightedSumExact([]uint64{1, 1}, [][]uint64{{100}, {100}})
	if res[0] != 200 || ovf[0] {
		t.Errorf("got res=%d ovf=%v, want 200 false", res[0], ovf[0])
	}
}

func TestWeightedSumExactOverflow(t *testing.T) {
	r := MustNew(8)
	res, ovf := r.WeightedSumExact([]uint64{1, 1}, [][]uint64{{200}, {100}})
	if res[0] != 44 || !ovf[0] {
		t.Errorf("got res=%d ovf=%v, want 44 true", res[0], ovf[0])
	}
}

func TestWeightedSumExactLargeWeights(t *testing.T) {
	r := MustNew(64)
	// 2^63 * 2 overflows 64 bits exactly once.
	res, ovf := r.WeightedSumExact([]uint64{2}, [][]uint64{{1 << 63}})
	if res[0] != 0 || !ovf[0] {
		t.Errorf("got res=%d ovf=%v, want 0 true", res[0], ovf[0])
	}
}

// Property: WeightedSumExact's ring result always matches WeightedSum.
func TestWeightedSumExactMatchesRingProperty(t *testing.T) {
	r := MustNew(16)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		rows := make([][]uint64, n)
		w := make([]uint64, n)
		for i := range rows {
			rows[i] = []uint64{rng.Uint64(), rng.Uint64()}
			for j := range rows[i] {
				rows[i][j] = r.Reduce(rows[i][j])
			}
			w[i] = r.Reduce(rng.Uint64())
		}
		want := r.WeightedSum(w, rows)
		got, _ := r.WeightedSumExact(w, rows)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: exact ring result %v != %v", trial, got, want)
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, we := range []uint{8, 16, 32, 64} {
		r := MustNew(we)
		elems := []uint64{0, 1, r.Mask(), r.Mask() / 3}
		got := r.UnpackElems(r.PackElems(elems))
		for i := range elems {
			if got[i] != elems[i] {
				t.Errorf("we=%d elem %d: %d != %d", we, i, got[i], elems[i])
			}
		}
	}
}

func TestPackLittleEndian(t *testing.T) {
	r := MustNew(32)
	b := r.PackElems([]uint64{0x04030201})
	want := []byte{1, 2, 3, 4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("PackElems byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
}

// packReference is PackElems' original byte loop, kept as the golden its
// callers (examples/teecompare writes rows with it) depend on.
func packReference(r Ring, elems []uint64) []byte {
	eb := r.Bytes()
	out := make([]byte, len(elems)*eb)
	for i, e := range elems {
		e &= r.Mask()
		for b := 0; b < eb; b++ {
			out[i*eb+b] = byte(e >> (8 * b))
		}
	}
	return out
}

// TestAppendElemsRoundTrip: AppendElems lanes appended after a prefix
// decode back through UnpackElemsInto, whole or split into chunks at any
// element boundary (the way a reply is decoded out of a read buffer), and
// PackElems keeps its original bytes — unreduced inputs included.
func TestAppendElemsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, we := range []uint{8, 16, 32, 64} {
		r := MustNew(we)
		eb := r.Bytes()
		for _, m := range []int{0, 1, 3, 64, 1025} {
			raw := make([]uint64, m)
			for i := range raw {
				raw[i] = rng.Uint64() // unreduced: the encoder must mask
			}
			want := packReference(r, raw)
			if got := r.PackElems(raw); !bytes.Equal(got, want) {
				t.Fatalf("we=%d m=%d: PackElems bytes changed", we, m)
			}
			prefix := []byte{0xA5, 0x5A, 0x01}
			lanes := r.AppendElems(append([]byte{}, prefix...), raw)
			if !bytes.Equal(lanes[:len(prefix)], prefix) || !bytes.Equal(lanes[len(prefix):], want) {
				t.Fatalf("we=%d m=%d: AppendElems disturbed its prefix or differs from PackElems", we, m)
			}
			lanes = lanes[len(prefix):]
			for _, chunk := range []int{1, 7, 64, m + 1} {
				got := make([]uint64, m)
				for lo := 0; lo < m; lo += chunk {
					hi := min(lo+chunk, m)
					r.UnpackElemsInto(got[lo:hi], lanes[lo*eb:hi*eb])
				}
				for i := range raw {
					if got[i] != r.Reduce(raw[i]) {
						t.Fatalf("we=%d m=%d chunk=%d: lane %d = %#x, want %#x", we, m, chunk, i, got[i], r.Reduce(raw[i]))
					}
				}
			}
		}
	}
}

func TestPackPanicsOnUnalignedWidth(t *testing.T) {
	r := MustNew(12)
	defer func() {
		if recover() == nil {
			t.Fatal("PackElems on 12-bit ring did not panic")
		}
	}()
	r.PackElems([]uint64{1})
}

func TestElemsPerBlock(t *testing.T) {
	if got := MustNew(8).ElemsPerBlock(128); got != 16 {
		t.Errorf("l for we=8: %d, want 16", got)
	}
	if got := MustNew(32).ElemsPerBlock(128); got != 4 {
		t.Errorf("l for we=32: %d, want 4", got)
	}
}

func TestString(t *testing.T) {
	if got := MustNew(32).String(); got != "Z(2^32)" {
		t.Errorf("String() = %q", got)
	}
}

func TestFixedRoundTripSmallValues(t *testing.T) {
	f := NewFixed(MustNew(32), 16)
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 123.456, -987.125} {
		got := f.Decode(f.Encode(x))
		if math.Abs(got-x) > f.MaxAbsError() {
			t.Errorf("fixed round trip %g -> %g (err > %g)", x, got, f.MaxAbsError())
		}
	}
}

func TestFixedSaturation(t *testing.T) {
	f := NewFixed(MustNew(8), 2) // range [-32, 31.75]
	if got := f.Decode(f.Encode(1000)); got != 31.75 {
		t.Errorf("positive saturation: %g, want 31.75", got)
	}
	if got := f.Decode(f.Encode(-1000)); got != -32 {
		t.Errorf("negative saturation: %g, want -32", got)
	}
}

func TestFixedVecRoundTrip(t *testing.T) {
	f := NewFixed(MustNew(32), 20)
	xs := []float64{0.001, -0.002, 3.14159, -2.71828}
	ys := f.DecodeVec(f.EncodeVec(xs))
	for i := range xs {
		if math.Abs(ys[i]-xs[i]) > f.MaxAbsError() {
			t.Errorf("vec round trip %g -> %g", xs[i], ys[i])
		}
	}
}

func TestFixedPanicsOnBadFrac(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFixed(frac >= width) did not panic")
		}
	}()
	NewFixed(MustNew(8), 8)
}

// Property: fixed-point addition in the ring matches float addition within
// quantization error, when no saturation occurs.
func TestFixedAdditionHomomorphismProperty(t *testing.T) {
	f := NewFixed(MustNew(32), 16)
	r := f.R
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		x := rng.Float64()*200 - 100
		y := rng.Float64()*200 - 100
		got := f.Decode(r.Add(f.Encode(x), f.Encode(y)))
		if math.Abs(got-(x+y)) > 2*f.MaxAbsError()+1e-9 {
			t.Fatalf("fixed add: %g + %g = %g (ring %g)", x, y, x+y, got)
		}
	}
}

func TestScaleAccumBytesMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, we := range []uint{8, 16, 32, 64} {
		r := MustNew(we)
		for _, m := range []int{1, 2, 3, 7, 64} {
			data := make([]byte, m*r.Bytes())
			rng.Read(data)
			w := rng.Uint64()
			got := make([]uint64, m)
			want := make([]uint64, m)
			for j := range got {
				v := rng.Uint64() & r.Mask()
				got[j], want[j] = v, v
			}
			r.ScaleAccumBytes(got, w, data)
			row := make([]uint64, m)
			r.UnpackElemsInto(row, data)
			r.ScaleAccum(want, w, row)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("we=%d m=%d: ScaleAccumBytes[%d] = %#x, two-pass %#x", we, m, j, got[j], want[j])
				}
			}
		}
	}
}

func TestScaleAccumBytesRejectsUnalignedWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleAccumBytes with non-byte-aligned width did not panic")
		}
	}()
	MustNew(12).ScaleAccumBytes(make([]uint64, 2), 1, make([]byte, 4))
}
