package otp

import "secndp/internal/ring"

// Fused tag+pad generation. The verified query path needs, per referenced
// row, both the row's data pads (Algorithm 4's OTP share) and its tag pad
// (Algorithm 5's E_{T_i}) — previously two passes: a CTR keystream run per
// row plus one serialized single-block encryption per tag. The kernels
// here gather every counter block a span of rows needs — data chunks and
// tag counters together — into one scratch buffer and push them through
// encryptBlocks, the eight-way AES-NI walk, in a single pass. On hardware
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
		in := counterBlock(DomainTag, addr, version)
		copy(dst[r*BlockBytes:], in[:])
	}
	encryptBlocks(&g.rk[0], &dst[0], &dst[0], len(rowAddrs))
}

// PadTagScaleAccum is the verifier's fused OTP half: for every row r it
// accumulates acc[j] += weights[r]·pad_j(addrs[r]) mod 2^we (the data-pad
// share) and writes the row's tag pad into tagPads[16r:16r+16]. Data
// chunks and tag counters are gathered tile-by-tile into one buffer and
// encrypted in a single eight-way walk per tile — tag pads and data pads
// for the same address span come out of one keystream pass.
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
	// Data pads ride the CTR assembly (counters built in registers, which
	// beats staging them through memory); each row's tag counter is
	// gathered into the caller's tagPads buffer as the walk passes, then
	// the whole gather is encrypted in place by one eight-way ECB run.
	p, ks := getScratch(rowBytes)
	for k, addr := range addrs {
		g.PadsInto(ks, DomainData, addr, version)
		r.ScaleAccumBytes(acc, weights[k], ks)
		tin := counterBlock(DomainTag, addr, version)
		copy(tagPads[k*BlockBytes:], tin[:])
	}
	putScratch(p)
	encryptBlocks(&g.rk[0], &tagPads[0], &tagPads[0], len(addrs))
}
