package otp

import "secndp/internal/ring"

// Fused tag+pad generation. The verified query path needs, per referenced
// row, both the row's data pads (Algorithm 4's OTP share) and its tag pad
// (Algorithm 5's E_{T_i}) — previously two passes: a CTR keystream run per
// row plus one serialized single-block encryption per tag. The kernels
// here write each row's tag counter block straight into the caller's tag
// buffer — two 8-byte stores, from the same counter words as the row's
// data run — and push the whole gather through encryptBlocks (16-way VAES
// or eight-way AES-NI) in a single pass. On hardware
// without the native path they fall back to the existing PadsInto/Block
// engines, so behavior is identical everywhere (pinned by
// fusedtag_test.go against the public single-row primitives).

// TagPads fills dst (16 bytes per address) with the tag pads
// E(K, 10‖addr‖v) of the given row addresses — Algorithm 3's E_{T_i} for a
// gathered set of rows in one multi-block encryption instead of one
// serialized block encryption each.
func (g *Generator) TagPads(dst []byte, rowAddrs []uint64, version uint64) {
	if len(dst) != len(rowAddrs)*BlockBytes {
		panic("otp: TagPads destination size mismatch")
	}
	if len(rowAddrs) == 0 {
		return
	}
	if !g.native {
		g.cBlock.Inc()
		for r, addr := range rowAddrs {
			in := counterBlock(DomainTag, addr, version)
			var out [BlockBytes]byte
			g.blockEncrypt(&out, &in)
			copy(dst[r*BlockBytes:], out[:])
		}
		return
	}
	g.cNative.Inc()
	for r, addr := range rowAddrs {
		hi, ctr := counterWords(DomainTag, addr, version)
		putCounter(dst[r*BlockBytes:], hi, ctr)
	}
	encryptBlocks(&g.rk[0], &dst[0], &dst[0], len(rowAddrs))
}

// PadTagScaleAccum is the verifier's fused OTP half: for every row r it
// accumulates acc[j] += weights[r]·pad_j(addrs[r]) mod 2^we (the data-pad
// share) and writes the row's tag pad into tagPads[16r:16r+16]. Each
// row's data pads are one keystream run and its tag counter is staged in
// tagPads as the walk passes; one ECB walk then encrypts every staged tag
// counter in place.
//
// len(acc)·we/8 must be a multiple of the block size (whole-chunk rows,
// as with PadScaleAccum); len(tagPads) must be 16·len(addrs) and
// len(weights) must equal len(addrs).
func (g *Generator) PadTagScaleAccum(acc []uint64, we uint, weights, addrs []uint64, version uint64, tagPads []byte) {
	rowBytes := elemBytes(len(acc), we)
	if rowBytes%BlockBytes != 0 {
		panic("otp: PadTagScaleAccum row not a multiple of the block size")
	}
	if len(weights) != len(addrs) {
		panic("otp: PadTagScaleAccum weight/address length mismatch")
	}
	if len(tagPads) != len(addrs)*BlockBytes {
		panic("otp: PadTagScaleAccum tag destination size mismatch")
	}
	if len(addrs) == 0 || rowBytes == 0 {
		return
	}
	r := ring.MustNew(we)
	if !g.native {
		// Fallback: per-row keystream run + single-block tag encryption
		// through the existing engines.
		p, ks := getScratch(rowBytes)
		for k, addr := range addrs {
			g.PadsInto(ks, DomainData, addr, version)
			r.ScaleAccumBytes(acc, weights[k], ks)
			in := counterBlock(DomainTag, addr, version)
			var out [BlockBytes]byte
			g.blockEncrypt(&out, &in)
			copy(tagPads[k*BlockBytes:], out[:])
		}
		putScratch(p)
		return
	}
	g.cNative.Inc()
	// One range check and one pair of counter words per row serve both
	// its data run (in registers) and its tag counter (two stores into
	// tagPads). DomainData's domain bits are zero, so OR-ing in
	// DomainTag's turns the data hi word into the tag's.
	p, ks := getScratch(rowBytes)
	for k, addr := range addrs {
		checkPadRange(addr, rowBytes)
		hi, ctr := counterWords(DomainData, addr, version)
		ctrKeystream(&g.rk[0], hi, ctr, &ks[0], rowBytes/BlockBytes)
		r.ScaleAccumBytes(acc, weights[k], ks)
		putCounter(tagPads[k*BlockBytes:], hi|uint64(DomainTag)<<62, ctr)
	}
	putScratch(p)
	encryptBlocks(&g.rk[0], &tagPads[0], &tagPads[0], len(addrs))
}
