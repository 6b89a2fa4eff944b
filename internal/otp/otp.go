// Package otp generates the one-time pads of SecNDP's counter-mode
// arithmetic encryption (paper §IV-B, Definition A.2). A pad block is
//
//	E(K, D ‖ addr ‖ v ‖ 0…)
//
// where E is a 128-bit block cipher (AES-128 here), D is a 2-bit domain
// separator, addr is the physical byte address of the wc-bit chunk the pad
// covers, and v is the version number drawn by the trusted software
// (§V-A). The three domains keep the data pads (Alg. 1), the checksum seed
// s (Alg. 2) and the tag pads (Alg. 3) cryptographically independent even
// when addresses collide.
//
// The counter block is laid out so that the pads of consecutive 16-byte
// chunks form an exact AES-CTR keystream (the chunk index occupies the
// low-order counter bytes). Multi-block pad runs therefore go through a
// pipelined CTR keystream instead of one serialized single-block
// encryption per chunk: on amd64 the package's own assembly, a 16-way
// 256-bit VAES kernel where the CPU has it and an eight-way AES-NI kernel
// otherwise, with the counter built in registers (aesctr.go); elsewhere
// the standard library's CTR stream (keystream.go).
package otp

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"secndp/internal/telemetry"
)

// Domain is the 2-bit domain separator D of Definition A.2.
type Domain byte

const (
	// DomainData ('00') pads data chunks (Algorithm 1).
	DomainData Domain = 0b00
	// DomainSeed ('01') derives the checksum seed s (Algorithm 2).
	DomainSeed Domain = 0b01
	// DomainTag ('10') pads verification tags (Algorithm 3).
	DomainTag Domain = 0b10
)

// BlockBytes is the cipher block size wc/8 = 16 bytes.
const BlockBytes = 16

// BlockBits is the cipher block width wc = 128 bits.
const BlockBits = 128

// KeySize is the AES-128 key size in bytes (w_K = 128).
const KeySize = 16

// MaxAddr bounds physical addresses to the paper's w_A = 38-bit address
// space (256 GiB), leaving room for the version field in the counter block.
const MaxAddr = uint64(1)<<38 - 1

// MaxVersion bounds version numbers to w_v = 56 bits, the width of the
// version field in this implementation's counter-block layout (the paper
// requires w_v < wc − 37 − 2 = 89; we use 56 so the layout is byte-aligned).
const MaxVersion = uint64(1)<<56 - 1

// Generator produces OTP blocks under a fixed secret key. It is safe for
// concurrent use: cipher.Block is stateless for encryption, and the native
// keystream (aesctr.go) is stateless by construction.
type Generator struct {
	block cipher.Block
	// rk is the expanded AES-128 schedule for the native keystream (both
	// arms); valid only when native is true (AES-NI present on amd64).
	rk     roundKeyBytes
	native bool

	// Engine-selection counters (nil-safe no-ops when uninstrumented):
	// which keystream engine served each multi-block pad run — the native
	// assembly (VAES or AES-NI arm), the stdlib CTR stream, or the per-block
	// cipher.Block fallback. One count per PadsInto, XORPads, TagPads or
	// native PadTagScaleAccum call plus one per Keystream opened.
	cNative *telemetry.Counter
	cStream *telemetry.Counter
	cBlock  *telemetry.Counter
}

// Instrument attaches engine-selection counters (typically
// registry-owned). Call before the generator sees traffic; nil counters
// are valid no-ops.
func (g *Generator) Instrument(native, stream, perBlock *telemetry.Counter) {
	g.cNative, g.cStream, g.cBlock = native, stream, perBlock
}

// NewGenerator builds a Generator from a w_K = 128-bit secret key.
func NewGenerator(key []byte) (*Generator, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("otp: key must be %d bytes, got %d", KeySize, len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("otp: %w", err)
	}
	g := &Generator{block: b}
	if supportsNativeCTR() {
		expandKey128(key, &g.rk)
		g.native = true
	}
	return g, nil
}

// counterBlock assembles the 16-byte cipher input D ‖ addr ‖ v:
//
//	byte 0      : D in the top 2 bits, two zero bits, then the low 4 bits
//	              of addr (the byte offset within its 16-byte chunk)
//	bytes 1..7  : 56-bit version (big endian)
//	bytes 8..15 : addr >> 4, the 34-bit chunk index (big endian)
//
// Layout detail is an implementation choice; the security argument only
// needs (D, addr, v) to be injective into the block, which this is: byte 0
// recovers D and addr's low nibble, bytes 1..7 recover v, bytes 8..15
// recover addr's chunk index.
//
// Placing the chunk index in the low-order bytes makes the pads of
// consecutive chunks (addr, addr+16, addr+32, …) an exact AES-CTR
// keystream under the IV counterBlock(d, addr, v): CTR increments the
// block counter by one per 16 bytes, which is precisely the chunk-index
// step. The index is 34 bits, so stepping through the whole 38-bit address
// space never carries into the version bytes.
//
// Bytes 0..7 are one big-endian word, hi = D<<62 | (addr&0xF)<<56 | v,
// and bytes 8..15 another, ctr = addr>>4 (counterWords). The native
// keystream takes the two words in registers; where a block must sit in
// memory (gathered tag counters, the stdlib fallback) putCounter writes
// it as two 8-byte stores.
func counterBlock(d Domain, addr, version uint64) [BlockBytes]byte {
	var in [BlockBytes]byte
	hi, ctr := counterWords(d, addr, version)
	putCounter(in[:], hi, ctr)
	return in
}

// counterWords returns the two big-endian words of counterBlock(d, addr,
// version). Both range checks are one test, and the panic value formats
// its message only when printed, so this body inlines.
func counterWords(d Domain, addr, version uint64) (hi, ctr uint64) {
	if addr>>38|version>>56 != 0 {
		panic(counterRangeError{addr, version})
	}
	return uint64(d)<<62 | (addr&0xF)<<56 | version, addr >> 4
}

// putCounter writes a counter block's two words to b[0:16] with two
// 8-byte stores. It must inline (make inline-check): as a call, its
// caller's words go through the stack, and reading a 16-byte block back
// from two 8-byte stores stalls on store forwarding.
func putCounter(b []byte, hi, ctr uint64) {
	_ = b[15]
	binary.BigEndian.PutUint64(b, hi)
	binary.BigEndian.PutUint64(b[8:], ctr)
}

// counterRangeError is counterWords' panic value: the counter-block input
// that is out of range.
type counterRangeError struct{ addr, version uint64 }

func (e counterRangeError) Error() string {
	if e.addr > MaxAddr {
		return fmt.Sprintf("otp: address %#x exceeds the %d-bit physical address space", e.addr, 38)
	}
	return fmt.Sprintf("otp: version %#x exceeds %d bits", e.version, 56)
}

// Block returns the 128-bit OTP block E(K, D‖addr‖v). addr is the starting
// physical byte address of the wc-bit chunk the pad covers.
func (g *Generator) Block(d Domain, addr, version uint64) [BlockBytes]byte {
	var out [BlockBytes]byte
	if g.native {
		// A one-block keystream is exactly E(K, counter block), without
		// the heap escapes the cipher.Block interface call forces.
		hi, ctr := counterWords(d, addr, version)
		ctrKeystream(&g.rk[0], hi, ctr, &out[0], 1)
	} else {
		in := counterBlock(d, addr, version)
		g.blockEncrypt(&out, &in)
	}
	return out
}

// blockEncrypt outlines the cipher.Block call so its interface-driven heap
// escapes stay local to the slow path: the copies escape here, the caller's
// arrays remain on its stack.
//
//go:noinline
func (g *Generator) blockEncrypt(out, in *[BlockBytes]byte) {
	src := *in
	var dst [BlockBytes]byte
	g.block.Encrypt(dst[:], src[:])
	*out = dst
}

// ElemPad returns the we-bit pad substring for the element at physical byte
// address elemAddr, as used by the processor when it reconstructs a single
// element's share (Algorithm 4 lines 9–11): the pad block is generated for
// the enclosing 16-byte-aligned chunk and the element's lane is extracted.
// we must be a byte-aligned width in {8,16,32,64}.
func (g *Generator) ElemPad(elemAddr, version uint64, we uint) uint64 {
	eb := we / 8
	if we%8 != 0 {
		panic("otp: ElemPad requires a byte-aligned element width <= 64")
	}
	chunk := elemAddr &^ uint64(BlockBytes-1)
	idx := elemAddr - chunk // byte offset within the chunk
	if eb != 0 && idx%uint64(eb) != 0 {
		panic("otp: element address not aligned to the element width")
	}
	pad := g.Block(DomainData, chunk, version)
	// Lanes are little-endian we-bit substrings of the pad block, the same
	// byte order ring.UnpackElems uses for whole rows.
	switch eb {
	case 1:
		return uint64(pad[idx])
	case 2:
		return uint64(binary.LittleEndian.Uint16(pad[idx:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(pad[idx:]))
	case 8:
		return binary.LittleEndian.Uint64(pad[idx:])
	default:
		panic("otp: ElemPad requires a byte-aligned element width <= 64")
	}
}

// Seed derives the checksum seed s of Algorithm 2: the first w_t = 127 bits
// of E(K, 01‖paddr(P)‖v), returned as 16 little-endian bytes with bit 127
// cleared by the caller (package core lifts it into the field).
func (g *Generator) Seed(matrixAddr, version uint64) [BlockBytes]byte {
	return g.Block(DomainSeed, matrixAddr, version)
}

// TagPad derives the tag pad E_{T_i} of Algorithm 3: the first w_t bits of
// E(K, 10‖paddr(P_i)‖v) for row i's physical address.
func (g *Generator) TagPad(rowAddr, version uint64) [BlockBytes]byte {
	return g.Block(DomainTag, rowAddr, version)
}
