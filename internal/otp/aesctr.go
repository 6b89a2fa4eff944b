package otp

import "encoding/binary"

// Native AES-CTR fast path. cipher.NewCTR reaches the standard library's
// pipelined multi-block assembly, but its per-call setup — a fresh stream
// object plus a full key-schedule copy — costs as much as encrypting ~8
// blocks. Sequential scans amortize that through Keystream; random-access
// pad generation (one short run per table row, at an unpredictable
// address) cannot. This file gives the Generator a setup-free keystream
// primitive for that case: the AES-128 key schedule is expanded once at
// NewGenerator, and ctrKeystream fills a destination with keystream
// blocks, no allocation, no state. The counter arrives as two register
// words (counterWords), never as a block in memory.
//
// Two arms run it, chosen once from CPUID:
//
//   - VAES (vaes_amd64.s): 256-bit VEX VAESENC, two blocks per Y register,
//     16 blocks per iteration, counter blocks built in Y registers by one
//     add and one byte shuffle per pair. Needs AVX2, VAES and the YMM
//     state saved by the OS (supportsVAES).
//   - AES-NI (ctr_amd64.s): eight-way interleaved AESENC, counter blocks
//     built from two general registers. Every AES-NI CPU runs it.
//
// Both are implementations of exactly the same function as the stdlib CTR
// stream (verified bit-for-bit by TestNativeCTRMatchesStdlib and
// FuzzKeystreamArms): block i of dst is E(K, iv+i) with the counter
// incremented as a 128-bit big-endian integer. On other architectures, or
// on amd64 without AES-NI, Generator.native stays false and callers use
// the stdlib path.

// useVAES selects the VAES arm of ctrKeystream and encryptBlocks; the
// assembly entry points read it on every call. Tests flip it to run both
// arms.
var useVAES = supportsVAES()

// roundKeyBytes holds the expanded AES-128 encryption schedule as the 11
// round keys' raw bytes, the layout AESENC consumes directly.
type roundKeyBytes [176]byte

// sbox is the AES S-box, generated algorithmically at init (multiplicative
// inverse in GF(2^8) followed by the affine transform) rather than
// transcribed — the known-answer tests and the stdlib-equivalence tests
// pin the result.
var sbox [256]byte

func init() {
	rotl8 := func(x byte, n uint) byte { return x<<n | x>>(8-n) }
	// Walk the multiplicative group: p runs over 3^k, q over 3^-k, so
	// q is always p's inverse. Covers all non-zero field elements.
	p, q := byte(1), byte(1)
	for {
		// p *= 3 in GF(2^8) (multiply by x+1 modulo x^8+x^4+x^3+x+1).
		p = p ^ (p << 1) ^ (byte(int8(p)>>7) & 0x1B)
		// q /= 3: division is multiplication by the inverse of x+1,
		// computed by the standard shift cascade.
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		sbox[p] = q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	sbox[0] = 0x63
}

// expandKey128 runs the FIPS-197 key schedule for AES-128 and serializes
// the 44 words big-endian — the byte order AESENC expects in memory.
func expandKey128(key []byte, rk *roundKeyBytes) {
	var w [44]uint32
	for i := 0; i < 4; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = t<<8 | t>>24 // RotWord
			t = uint32(sbox[t>>24])<<24 | uint32(sbox[t>>16&0xFF])<<16 |
				uint32(sbox[t>>8&0xFF])<<8 | uint32(sbox[t&0xFF]) // SubWord
			t ^= rcon << 24
			rcon <<= 1
			if rcon&0x100 != 0 {
				rcon ^= 0x11B // xtime past 0x80
			}
		}
		w[i] = w[i-4] ^ t
	}
	for i, word := range w {
		binary.BigEndian.PutUint32(rk[4*i:], word)
	}
}
