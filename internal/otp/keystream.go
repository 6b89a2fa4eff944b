package otp

import (
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"sync"
)

// This file is the multi-block keystream engine. The counter-block layout
// (see counterBlock) makes the pads of consecutive chunks an exact AES-CTR
// keystream, so a run of blocks is one CTR keystream instead of one
// serialized Encrypt call per block.
//
// Two access patterns are served:
//
//   - Random access (PadsInto, XORPads, the fused kernels in fused.go and
//     fusedtag.go): one run per call. A native generator runs every such
//     run, whatever its length, through ctrKeystream (aesctr.go), which
//     has no setup. Elsewhere, runs shorter than ctrMinBytes use
//     single-block encryption and longer ones a cipher.NewCTR stream.
//   - Sequential scans (Keystream): table-order walks — encryption,
//     re-encryption, full-table decryption — reuse one stdlib stream
//     across every row, making the steady state allocation-free.

// ctrMinBytes is the crossover below which per-block encryption beats
// cipher.NewCTR: the CTR path pays a fixed setup cost (key-schedule copy
// plus one small allocation) that only amortizes over longer runs. It only
// matters on hardware without the native keystream.
const ctrMinBytes = 8 * BlockBytes

// xorStepBytes is XORPads' keystream step on a native generator: a stack
// buffer of one VAES iteration, filled and XORed in turn.
const xorStepBytes = 16 * BlockBytes

// zeroBytes is a shared all-zero source buffer: XORing the keystream into
// zeros yields the raw keystream. Read-only; safe for concurrent use.
var zeroBytes [4096]byte

// scratchPool recycles keystream scratch buffers across fused-kernel calls
// so steady-state queries allocate nothing for pad staging.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 4096)
		return &b
	},
}

// getScratch returns a pooled buffer of length n and the pool token to
// hand back via putScratch.
func getScratch(n int) (*[]byte, []byte) {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return p, (*p)[:n]
}

func putScratch(p *[]byte) { scratchPool.Put(p) }

// checkPadRange validates a pad run [addr, addr+n) once, up front, so the
// per-block loop and the CTR stream run unchecked. n must be positive. The
// panic is outlined so the check inlines into every pad-run entry point.
func checkPadRange(addr uint64, n int) {
	if last := addr + uint64(n) - BlockBytes; last < addr || last > MaxAddr {
		padRangePanic(addr, n)
	}
}

//go:noinline
func padRangePanic(addr uint64, n int) {
	panic(fmt.Sprintf("otp: pad run [%#x, %#x) exceeds the %d-bit physical address space", addr, addr+uint64(n), 38))
}

// Pads writes n consecutive OTP blocks into a 16·n byte slice: block i
// covers the chunk at addr + 16·i, matching the loop of Algorithm 1
// (Addr_i ← Addr + i · wc/8).
func (g *Generator) Pads(d Domain, addr, version uint64, n int) []byte {
	out := make([]byte, n*BlockBytes)
	g.PadsInto(out, d, addr, version)
	return out
}

// PadsInto fills dst (whose length must be a multiple of 16) with
// consecutive OTP blocks starting at addr. The address range is validated
// once up front; the run is one pipelined CTR keystream.
func (g *Generator) PadsInto(dst []byte, d Domain, addr, version uint64) {
	if len(dst)%BlockBytes != 0 {
		panic("otp: PadsInto destination not a multiple of the block size")
	}
	if len(dst) == 0 {
		return
	}
	checkPadRange(addr, len(dst))
	if g.native {
		g.cNative.Inc()
		hi, ctr := counterWords(d, addr, version)
		ctrKeystream(&g.rk[0], hi, ctr, &dst[0], len(dst)/BlockBytes)
		return
	}
	in := counterBlock(d, addr, version)
	if len(dst) < ctrMinBytes {
		g.cBlock.Inc()
		idx := addr >> 4
		for i := 0; i < len(dst); i += BlockBytes {
			putCounterIndex(&in, idx+uint64(i/BlockBytes))
			g.block.Encrypt(dst[i:i+BlockBytes], in[:])
		}
		return
	}
	g.cStream.Inc()
	s := cipher.NewCTR(g.block, in[:])
	for off := 0; off < len(dst); off += len(zeroBytes) {
		end := off + len(zeroBytes)
		if end > len(dst) {
			end = len(dst)
		}
		s.XORKeyStream(dst[off:end], zeroBytes[:end-off])
	}
}

// putCounterIndex overwrites the chunk-index bytes (8..15) of a counter
// block in place — the only bytes that vary between consecutive chunks.
func putCounterIndex(in *[BlockBytes]byte, idx uint64) {
	in[8] = byte(idx >> 56)
	in[9] = byte(idx >> 48)
	in[10] = byte(idx >> 40)
	in[11] = byte(idx >> 32)
	in[12] = byte(idx >> 24)
	in[13] = byte(idx >> 16)
	in[14] = byte(idx >> 8)
	in[15] = byte(idx)
}

// XORPads XORs the pad keystream for [addr, addr+len(src)) into src,
// writing dst — one-pass counter-mode en/decryption for byte-granularity
// consumers (the conventional-TEE engine of package memenc). len(dst) must
// equal len(src), a multiple of the block size; dst and src must either
// alias exactly or not overlap.
func (g *Generator) XORPads(dst, src []byte, d Domain, addr, version uint64) {
	if len(dst) != len(src) {
		panic("otp: XORPads length mismatch")
	}
	if len(src)%BlockBytes != 0 {
		panic("otp: XORPads length not a multiple of the block size")
	}
	if len(src) == 0 {
		return
	}
	checkPadRange(addr, len(src))
	if g.native {
		g.cNative.Inc()
		hi, ctr := counterWords(d, addr, version)
		var ks [xorStepBytes]byte
		for off := 0; off < len(src); off += xorStepBytes {
			n := min(xorStepBytes, len(src)-off)
			ctrKeystream(&g.rk[0], hi, ctr, &ks[0], n/BlockBytes)
			subtle.XORBytes(dst[off:off+n], src[off:off+n], ks[:n])
			ctr += xorStepBytes / BlockBytes
		}
		return
	}
	in := counterBlock(d, addr, version)
	if len(src) <= ctrMinBytes {
		g.cBlock.Inc()
		var ks [ctrMinBytes]byte
		idx := addr >> 4
		for i := 0; i < len(src); i += BlockBytes {
			putCounterIndex(&in, idx+uint64(i/BlockBytes))
			g.block.Encrypt(ks[i:i+BlockBytes], in[:])
		}
		subtle.XORBytes(dst, src, ks[:len(src)])
		return
	}
	g.cStream.Inc()
	cipher.NewCTR(g.block, in[:]).XORKeyStream(dst, src)
}

// Keystream is a sequential pad stream positioned at an address: each
// operation consumes the pads of the next run of chunks and advances.
// Table-order scans (encryption, re-encryption, bulk decryption) open one
// Keystream and reuse it across every row, paying the CTR setup cost once
// for the whole table — the steady state per row is allocation-free.
//
// A Keystream is not safe for concurrent use.
//
// Keystream always rides the stdlib CTR stream, whose setup it pays once
// per scan. On a native generator ctrKeystream is faster per byte at every
// run length (DESIGN.md "Keystream engine"), so a scan could ride it too;
// it does not yet.
type Keystream struct {
	g       *Generator
	s       cipher.Stream
	d       Domain
	version uint64
	addr    uint64 // address of the next unconsumed chunk
}

// Keystream opens a sequential pad stream at addr, which must be 16-byte
// aligned (the stream advances in whole chunks).
func (g *Generator) Keystream(d Domain, addr, version uint64) *Keystream {
	if addr%BlockBytes != 0 {
		panic("otp: Keystream start address not chunk-aligned")
	}
	g.cStream.Inc()
	iv := counterBlock(d, addr, version)
	return &Keystream{
		g:       g,
		s:       cipher.NewCTR(g.block, iv[:]),
		d:       d,
		version: version,
		addr:    addr,
	}
}

// Addr returns the address of the next unconsumed chunk.
func (k *Keystream) Addr() uint64 { return k.addr }

// advance consumes n bytes of address space, validating the range first.
func (k *Keystream) advance(n int) {
	if n%BlockBytes != 0 {
		panic("otp: Keystream advance not a multiple of the block size")
	}
	checkPadRange(k.addr, n)
	k.addr += uint64(n)
}

// Skip discards n bytes of keystream (n a multiple of 16) — used to jump
// the gap between rows when the layout interleaves tags with data.
func (k *Keystream) Skip(n int) {
	if n == 0 {
		return
	}
	k.advance(n)
	p, buf := getScratch(n)
	for len(buf) > 0 {
		step := len(buf)
		if step > len(zeroBytes) {
			step = len(zeroBytes)
		}
		k.s.XORKeyStream(buf[:step], zeroBytes[:step])
		buf = buf[step:]
	}
	putScratch(p)
}

// PadsInto fills dst with the pads of the next len(dst)/16 chunks,
// identical to Generator.PadsInto at the stream's current address.
func (k *Keystream) PadsInto(dst []byte) {
	if len(dst) == 0 {
		return
	}
	k.advance(len(dst))
	for off := 0; off < len(dst); off += len(zeroBytes) {
		end := off + len(zeroBytes)
		if end > len(dst) {
			end = len(dst)
		}
		k.s.XORKeyStream(dst[off:end], zeroBytes[:end-off])
	}
}

// XORKeyStream XORs the next len(src) bytes of pad keystream into src,
// writing dst, and advances. Constraints match Generator.XORPads.
func (k *Keystream) XORKeyStream(dst, src []byte) {
	if len(dst) != len(src) {
		panic("otp: Keystream XOR length mismatch")
	}
	if len(src) == 0 {
		return
	}
	k.advance(len(src))
	k.s.XORKeyStream(dst, src)
}
