// Package ring implements modular arithmetic in the integer ring Z(2^we),
// the algebraic structure underlying SecNDP's arithmetic secret sharing
// (paper §III-C, §IV-A). Elements are stored in uint64 regardless of the
// ring width; all operations reduce modulo 2^we.
//
// The ring width we is the bit width of one data element (8 for quantized
// embeddings, 32 for full-precision fixed point). A 128-bit cipher block
// covers l = wc/we consecutive elements.
package ring

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Ring is the integer ring Z(2^we) for a fixed element width we in bits.
// The zero value is not valid; use New.
type Ring struct {
	we   uint
	mask uint64
}

// New returns the ring Z(2^we). The width must be in [1, 64].
func New(we uint) (Ring, error) {
	if we == 0 || we > 64 {
		return Ring{}, fmt.Errorf("ring: element width %d out of range [1,64]", we)
	}
	return Ring{we: we, mask: maskFor(we)}, nil
}

// MustNew is New but panics on an invalid width. Intended for package-level
// constants and tests where the width is a literal.
func MustNew(we uint) Ring {
	r, err := New(we)
	if err != nil {
		panic(err)
	}
	return r
}

func maskFor(we uint) uint64 {
	if we == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << we) - 1
}

// Width returns the element width we in bits.
func (r Ring) Width() uint { return r.we }

// Bytes returns the element width in bytes. Widths that are not a multiple
// of 8 round up.
func (r Ring) Bytes() int { return int(r.we+7) / 8 }

// Mask returns the bit mask 2^we - 1.
func (r Ring) Mask() uint64 { return r.mask }

// Reduce maps an arbitrary uint64 into the canonical representative in
// [0, 2^we).
func (r Ring) Reduce(a uint64) uint64 { return a & r.mask }

// Add returns a + b mod 2^we.
func (r Ring) Add(a, b uint64) uint64 { return (a + b) & r.mask }

// Sub returns a - b mod 2^we. This is the ⊖ operator of Algorithm 1.
func (r Ring) Sub(a, b uint64) uint64 { return (a - b) & r.mask }

// Neg returns -a mod 2^we.
func (r Ring) Neg(a uint64) uint64 { return (-a) & r.mask }

// Mul returns a * b mod 2^we.
func (r Ring) Mul(a, b uint64) uint64 { return (a * b) & r.mask }

// ToSigned interprets a canonical ring element as a two's-complement signed
// integer of width we.
func (r Ring) ToSigned(a uint64) int64 {
	a &= r.mask
	sign := uint64(1) << (r.we - 1)
	if a&sign != 0 {
		return int64(a | ^r.mask) // sign-extend
	}
	return int64(a)
}

// FromSigned maps a signed integer into the ring (two's complement,
// truncated to we bits).
func (r Ring) FromSigned(v int64) uint64 { return uint64(v) & r.mask }

// AddVec stores a[i] + b[i] mod 2^we into dst. The three slices must have
// equal length; dst may alias a or b.
func (r Ring) AddVec(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("ring: AddVec length mismatch")
	}
	for i := range a {
		dst[i] = (a[i] + b[i]) & r.mask
	}
}

// SubVec stores a[i] - b[i] mod 2^we into dst.
func (r Ring) SubVec(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("ring: SubVec length mismatch")
	}
	for i := range a {
		dst[i] = (a[i] - b[i]) & r.mask
	}
}

// ScaleAccum computes dst[i] += w * v[i] mod 2^we. This is the per-row step
// of the weighted summation (NDPInst with a multiply-accumulate).
func (r Ring) ScaleAccum(dst []uint64, w uint64, v []uint64) {
	if len(dst) != len(v) {
		panic("ring: ScaleAccum length mismatch")
	}
	// Unrolled 4-wide with explicit capacity slicing, which drops the
	// per-element bounds checks. The query paths fold packed bytes with
	// ScaleAccumBytes instead; this form serves already-unpacked rows.
	mask := r.mask
	i := 0
	for ; i+4 <= len(v); i += 4 {
		d := dst[i : i+4 : i+4]
		s := v[i : i+4 : i+4]
		d[0] = (d[0] + w*s[0]) & mask
		d[1] = (d[1] + w*s[1]) & mask
		d[2] = (d[2] + w*s[2]) & mask
		d[3] = (d[3] + w*s[3]) & mask
	}
	for ; i < len(v); i++ {
		dst[i] = (dst[i] + w*v[i]) & mask
	}
}

// ScaleAccumBytes computes dst[j] += w * lane_j(data) mod 2^we straight
// from packed ciphertext bytes — ScaleAccum fused with UnpackElemsInto, so
// the NDP's row loop needs neither an unpacked scratch vector nor a second
// pass over the row. len(data) must equal len(dst) × element bytes, and
// the width must be byte-aligned (the packed widths core.Params admits).
// It is the multiply-accumulate of both query halves: the NDP folds
// ciphertext rows with it and package otp folds pad keystream with it
// (accum.go has the kernel).
func (r Ring) ScaleAccumBytes(dst []uint64, w uint64, data []byte) {
	eb := r.Bytes()
	if uint(eb)*8 != r.we {
		panic("ring: ScaleAccumBytes requires byte-aligned width")
	}
	if len(data) != len(dst)*eb {
		panic("ring: ScaleAccumBytes size mismatch")
	}
	if useAccumAsm && eb < 8 {
		n := scaleAccumAsm(dst, w, data, eb)
		dst, data = dst[n:], data[n*eb:]
	}
	scaleAccumBytesGeneric(dst, w, data, eb, r.mask)
}

// Dot returns the inner product of a and b mod 2^we.
func (r Ring) Dot(a, b []uint64) uint64 {
	if len(a) != len(b) {
		panic("ring: Dot length mismatch")
	}
	var acc uint64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc & r.mask
}

// WeightedSum computes res_j = Σ_k weights[k] * rows[k][j] mod 2^we, the
// core SLS/pooling operation of Algorithm 4. All rows must share one length.
func (r Ring) WeightedSum(weights []uint64, rows [][]uint64) []uint64 {
	if len(weights) != len(rows) {
		panic("ring: WeightedSum length mismatch")
	}
	if len(rows) == 0 {
		return nil
	}
	res := make([]uint64, len(rows[0]))
	for k, row := range rows {
		r.ScaleAccum(res, weights[k], row)
	}
	return res
}

// WeightedSumExact computes the weighted sum over the full integers
// (128-bit accumulation) alongside the ring result and reports, per column,
// whether the exact unsigned sum exceeded the ring order — i.e. whether the
// ring computation overflowed. SecNDP's verification scheme detects exactly
// these overflows (paper footnote 1, Theorem A.2).
func (r Ring) WeightedSumExact(weights []uint64, rows [][]uint64) (res []uint64, overflow []bool) {
	if len(weights) != len(rows) {
		panic("ring: WeightedSumExact length mismatch")
	}
	if len(rows) == 0 {
		return nil, nil
	}
	m := len(rows[0])
	hi := make([]uint64, m)
	lo := make([]uint64, m)
	for k, row := range rows {
		if len(row) != m {
			panic("ring: WeightedSumExact ragged rows")
		}
		w := weights[k]
		for j, x := range row {
			ph, pl := bits.Mul64(w, x)
			var c uint64
			lo[j], c = bits.Add64(lo[j], pl, 0)
			hi[j], _ = bits.Add64(hi[j], ph, c)
		}
	}
	res = make([]uint64, m)
	overflow = make([]bool, m)
	for j := 0; j < m; j++ {
		res[j] = lo[j] & r.mask
		overflow[j] = hi[j] != 0 || lo[j] > r.mask
	}
	return res, overflow
}

// PackElems serializes canonical ring elements into bytes, little-endian
// within each element, matching the byte layout Algorithm 1 assumes when it
// slices a plaintext block into we-bit strings. Only widths that are
// multiples of 8 can be packed.
func (r Ring) PackElems(elems []uint64) []byte {
	return r.AppendElems(make([]byte, 0, len(elems)*r.Bytes()), elems)
}

// AppendElems is the append form of PackElems: it appends each element,
// reduced into the ring, to dst as one we-bit little-endian lane and
// returns the extended slice. It is the inverse of UnpackElemsInto and
// allocates only when dst's capacity is short.
func (r Ring) AppendElems(dst []byte, elems []uint64) []byte {
	eb := r.Bytes()
	if uint(eb)*8 != r.we {
		panic("ring: AppendElems requires byte-aligned width")
	}
	n := len(dst)
	dst = slices.Grow(dst, len(elems)*eb)[:n+len(elems)*eb]
	out := dst[n:]
	switch eb {
	case 1:
		for i, e := range elems {
			out[i] = byte(e)
		}
	case 2:
		for i, e := range elems {
			binary.LittleEndian.PutUint16(out[i*2:], uint16(e))
		}
	case 4:
		for i, e := range elems {
			binary.LittleEndian.PutUint32(out[i*4:], uint32(e))
		}
	case 8:
		for i, e := range elems {
			binary.LittleEndian.PutUint64(out[i*8:], e)
		}
	default:
		for i, e := range elems {
			e &= r.mask
			for b := 0; b < eb; b++ {
				out[i*eb+b] = byte(e >> (8 * b))
			}
		}
	}
	return dst
}

// UnpackElemsInto decodes packed elements into dst without allocating —
// the hot-path form used by the parallel OTP engine, where each worker
// reuses one scratch vector across rows. len(data) must equal
// len(dst) × element bytes.
func (r Ring) UnpackElemsInto(dst []uint64, data []byte) {
	eb := r.Bytes()
	if uint(eb)*8 != r.we {
		panic("ring: UnpackElemsInto requires byte-aligned width")
	}
	if len(data) != len(dst)*eb {
		panic("ring: UnpackElemsInto size mismatch")
	}
	// Whole-word loads per element width: this is the hottest decode loop
	// in the system (every row read on both the OTP and NDP sides passes
	// through it), and the generic byte-assembly form costs eb shifts and
	// bounds checks per element.
	switch eb {
	case 1:
		for i := range dst {
			dst[i] = uint64(data[i])
		}
	case 2:
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint16(data[i*2:]))
		}
	case 4:
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint32(data[i*4:]))
		}
	case 8:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
	default:
		for i := range dst {
			var e uint64
			for b := 0; b < eb; b++ {
				e |= uint64(data[i*eb+b]) << (8 * b)
			}
			dst[i] = e
		}
	}
}

// UnpackElems is the inverse of PackElems. len(data) must be a multiple of
// the element byte width.
func (r Ring) UnpackElems(data []byte) []uint64 {
	eb := r.Bytes()
	if uint(eb)*8 != r.we {
		panic("ring: UnpackElems requires byte-aligned width")
	}
	if len(data)%eb != 0 {
		panic("ring: UnpackElems data not a multiple of element size")
	}
	out := make([]uint64, len(data)/eb)
	r.UnpackElemsInto(out, data)
	return out
}

// ElemsPerBlock returns l = wc/we, the number of ring elements covered by
// one cipher block of wc bits (Algorithm 1).
func (r Ring) ElemsPerBlock(wc uint) int {
	if wc%r.we != 0 {
		panic("ring: cipher block width not a multiple of element width")
	}
	return int(wc / r.we)
}

// String implements fmt.Stringer.
func (r Ring) String() string { return fmt.Sprintf("Z(2^%d)", r.we) }
