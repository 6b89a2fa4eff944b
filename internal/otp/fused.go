package otp

import (
	"encoding/binary"

	"secndp/internal/ring"
)

// Fused pad-apply kernels: generate the keystream for a run of chunks and
// apply it to we-bit ring elements in one pass, without materializing an
// unpacked []uint64 pad vector. These replace the two-pass
// Pads → ring.UnpackElems pattern on every hot path — the OTP PU's
// multiply-accumulate (Algorithm 4 lines 8–14), arithmetic encryption
// (Algorithm 1), and bulk decryption — with pooled keystream scratch so
// the steady state allocates nothing beyond the stdlib CTR state.
//
// Element semantics match package ring exactly: elements are little-endian
// we-bit lanes, arithmetic is mod 2^we. we must be one of 8, 16, 32, 64
// (the widths core.Params admits). The multiply-accumulate is ring's own
// Ring.ScaleAccumBytes run over the keystream bytes — the kernel the NDP
// runs over ciphertext, so both halves of a query share one.

// laneMask returns 2^we − 1 for the supported widths.
func laneMask(we uint) uint64 {
	switch we {
	case 8, 16, 32:
		return (uint64(1) << we) - 1
	case 64:
		return ^uint64(0)
	default:
		panic("otp: fused kernels require an element width in {8,16,32,64}")
	}
}

// elemBytes returns len(elems)·we/8, validating the width.
func elemBytes(n int, we uint) int {
	laneMask(we)
	return n * int(we) / 8
}

// addUnpackKS computes dst[j] = lane_j(ct) + lane_j(ks) mod 2^we — fused
// unpack-and-decrypt (the final adder of Algorithm 4 applied to one row).
func addUnpackKS(dst []uint64, ct, ks []byte, we uint) {
	switch we {
	case 8:
		_ = ct[len(dst)-1]
		_ = ks[len(dst)-1]
		for j := range dst {
			dst[j] = (uint64(ct[j]) + uint64(ks[j])) & 0xFF
		}
	case 16:
		for j := range dst {
			dst[j] = (uint64(binary.LittleEndian.Uint16(ct[j*2:])) + uint64(binary.LittleEndian.Uint16(ks[j*2:]))) & 0xFFFF
		}
	case 32:
		for j := range dst {
			dst[j] = (uint64(binary.LittleEndian.Uint32(ct[j*4:])) + uint64(binary.LittleEndian.Uint32(ks[j*4:]))) & 0xFFFFFFFF
		}
	case 64:
		for j := range dst {
			dst[j] = binary.LittleEndian.Uint64(ct[j*8:]) + binary.LittleEndian.Uint64(ks[j*8:])
		}
	default:
		panic("otp: fused kernels require an element width in {8,16,32,64}")
	}
}

// subPackKS computes out_j = pack(row[j] − lane_j(ks) mod 2^we) — fused
// reduce-subtract-pack, Algorithm 1's c_j = p_j ⊖ e_j in one pass. row
// elements need not be pre-reduced: subtraction mod 2^64 followed by the
// lane mask equals reduce-then-subtract.
func subPackKS(out []byte, row []uint64, we uint, ks []byte) {
	switch we {
	case 8:
		_ = out[len(row)-1]
		_ = ks[len(row)-1]
		for j, p := range row {
			out[j] = byte(p) - ks[j]
		}
	case 16:
		for j, p := range row {
			binary.LittleEndian.PutUint16(out[j*2:], uint16(p)-binary.LittleEndian.Uint16(ks[j*2:]))
		}
	case 32:
		for j, p := range row {
			binary.LittleEndian.PutUint32(out[j*4:], uint32(p)-binary.LittleEndian.Uint32(ks[j*4:]))
		}
	case 64:
		for j, p := range row {
			binary.LittleEndian.PutUint64(out[j*8:], p-binary.LittleEndian.Uint64(ks[j*8:]))
		}
	default:
		panic("otp: fused kernels require an element width in {8,16,32,64}")
	}
}

// PadScaleAccum computes acc[j] += w·pad_j mod 2^we for the row of
// len(acc) we-bit elements at addr — the OTP PU's fused
// generate-unpack-multiply-accumulate step. The row must span whole
// 16-byte chunks (len(acc)·we/8 a multiple of 16).
func (g *Generator) PadScaleAccum(acc []uint64, w uint64, we uint, d Domain, addr, version uint64) {
	n := elemBytes(len(acc), we)
	if n == 0 {
		return
	}
	p, ks := getScratch(n)
	g.PadsInto(ks, d, addr, version)
	ring.MustNew(we).ScaleAccumBytes(acc, w, ks)
	putScratch(p)
}

// PadAddUnpack decrypts one packed ciphertext row in a single pass:
// dst[j] = unpack(ct)[j] + pad_j mod 2^we. len(ct) must equal
// len(dst)·we/8, a multiple of 16.
func (g *Generator) PadAddUnpack(dst []uint64, ct []byte, we uint, d Domain, addr, version uint64) {
	n := elemBytes(len(dst), we)
	if n != len(ct) {
		panic("otp: PadAddUnpack size mismatch")
	}
	if n == 0 {
		return
	}
	p, ks := getScratch(n)
	g.PadsInto(ks, d, addr, version)
	addUnpackKS(dst, ct, ks, we)
	putScratch(p)
}

// PadSubPack encrypts one row in a single pass: out = pack(row ⊖ pads),
// Algorithm 1 fused. len(out) must equal len(row)·we/8, a multiple of 16.
func (g *Generator) PadSubPack(out []byte, row []uint64, we uint, d Domain, addr, version uint64) {
	n := elemBytes(len(row), we)
	if n != len(out) {
		panic("otp: PadSubPack size mismatch")
	}
	if n == 0 {
		return
	}
	p, ks := getScratch(n)
	g.PadsInto(ks, d, addr, version)
	subPackKS(out, row, we, ks)
	putScratch(p)
}

// ScaleAccum is PadScaleAccum over a sequential Keystream: it consumes the
// next len(acc)·we/8 bytes of pad stream and advances.
func (k *Keystream) ScaleAccum(acc []uint64, w uint64, we uint) {
	n := elemBytes(len(acc), we)
	if n == 0 {
		return
	}
	p, ks := getScratch(n)
	k.PadsInto(ks)
	ring.MustNew(we).ScaleAccumBytes(acc, w, ks)
	putScratch(p)
}

// AddUnpack is PadAddUnpack over a sequential Keystream — the streaming
// bulk-decrypt kernel used by re-encryption.
func (k *Keystream) AddUnpack(dst []uint64, ct []byte, we uint) {
	n := elemBytes(len(dst), we)
	if n != len(ct) {
		panic("otp: AddUnpack size mismatch")
	}
	if n == 0 {
		return
	}
	p, ks := getScratch(n)
	k.PadsInto(ks)
	addUnpackKS(dst, ct, ks, we)
	putScratch(p)
}

// SubPack is PadSubPack over a sequential Keystream — the streaming
// encrypt kernel used by table initialization, allocation-free per row in
// the steady state.
func (k *Keystream) SubPack(out []byte, row []uint64, we uint) {
	n := elemBytes(len(row), we)
	if n != len(out) {
		panic("otp: SubPack size mismatch")
	}
	if n == 0 {
		return
	}
	p, ks := getScratch(n)
	k.PadsInto(ks)
	subPackKS(out, row, we, ks)
	putScratch(p)
}
