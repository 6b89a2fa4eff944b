// Package memory models the untrusted off-chip memory of SecNDP's threat
// model (paper §II, Figure 1). Everything stored here is visible to and
// modifiable by the adversary: the package exposes tamper primitives
// (bit flips, raw overwrites, replay of stale snapshots) used by the
// integrity tests, alongside ordinary read/write for the NDP units.
//
// The space is sparse (page-granular allocation) so multi-gigabyte
// embedding-table address ranges can be modeled without resident memory,
// and it counts traffic for the energy model.
//
// There are two ways to read it. Space.Read/ReadInto (and View.ReadInto
// under a held read lock) copy, cross page boundaries and return zeros for
// memory never written: the general path. View.Span is the NDP gather's
// path: the bytes in place, as a slice of the backing page, with a
// prefetch issued for each of their cache lines (prefetch_amd64.s; a
// no-op elsewhere) so that a reader who resolves a group of rows before
// touching any overlaps their cache misses, as the ranks of an NDP DIMM
// overlap theirs. Span declines (nil) what a page slice cannot express
// and counts the bytes it hands out exactly as the copy path would, so
// the traffic figures do not depend on which path served a read.
//
// Writes have the same two shapes: Space.Write/WriteECC lock and count per
// call, and a WriteView session stores a batch under one lock — the table
// encoder's path, counted exactly as the per-call writes would be.
package memory

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the allocation granule of the sparse space.
const PageSize = 1 << 12

// Space is a byte-addressable untrusted memory with a side-band "ECC chip"
// region (used by the Ver-ECC tag placement, §V-D option 3). The zero value
// is not usable; call NewSpace. Safe for concurrent use: concurrent reads
// proceed in parallel (multiple NDP PUs / batch queries), writes serialize.
type Space struct {
	mu    sync.RWMutex
	pages map[uint64][]byte
	ecc   map[uint64][]byte // side-band tag storage keyed by data address

	bytesRead, bytesWritten atomic.Uint64
	eccReads, eccWrites     atomic.Uint64
}

// Stats counts memory traffic in bytes, input to the energy model.
type Stats struct {
	BytesRead    uint64
	BytesWritten uint64
	ECCReads     uint64
	ECCWrites    uint64
}

// NewSpace returns an empty untrusted memory.
func NewSpace() *Space {
	return &Space{
		pages: make(map[uint64][]byte),
		ecc:   make(map[uint64][]byte),
	}
}

func (s *Space) page(addr uint64, alloc bool) ([]byte, uint64) {
	base := addr &^ (PageSize - 1)
	p, ok := s.pages[base]
	if !ok && alloc {
		p = make([]byte, PageSize)
		s.pages[base] = p
	}
	return p, addr - base
}

// Write stores data at addr, allocating pages as needed.
func (s *Space) Write(addr uint64, data []byte) {
	s.bytesWritten.Add(uint64(len(data)))
	s.writeRaw(addr, data)
}

func (s *Space) writeRaw(addr uint64, data []byte) {
	s.mu.Lock()
	s.writeLocked(addr, data)
	s.mu.Unlock()
}

// writeLocked is writeRaw's body; callers hold the write lock and account
// the traffic themselves.
func (s *Space) writeLocked(addr uint64, data []byte) {
	for len(data) > 0 {
		p, off := s.page(addr, true)
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// Read returns n bytes starting at addr. Unwritten bytes read as zero.
func (s *Space) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	s.ReadInto(out, addr)
	return out
}

// ReadInto fills dst from memory starting at addr.
func (s *Space) ReadInto(dst []byte, addr uint64) {
	s.bytesRead.Add(uint64(len(dst)))
	s.mu.RLock()
	s.readIntoLocked(dst, addr)
	s.mu.RUnlock()
}

// readIntoLocked is ReadInto's body; callers hold at least a read lock and
// account the traffic themselves.
func (s *Space) readIntoLocked(dst []byte, addr uint64) {
	for len(dst) > 0 {
		p, off := s.page(addr, false)
		var n int
		if p == nil {
			// Unallocated page reads as zeros.
			n = min(len(dst), PageSize-int(off))
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			n = copy(dst, p[off:])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// View is a read-locked session over the space: one RLock/RUnlock pair and
// one traffic-counter update cover an entire gather loop, instead of one
// of each per row. The NDP row loops read hundreds of rows per query, and
// the per-read lock acquisition (a contended atomic even when uncontended
// by writers) was measurable at ~8% of a verified query.
//
// The callback must only read through the view — calling any locking
// Space method from inside (Write, FlipBit, even ReadInto) would deadlock
// against the held read lock.
func (s *Space) View(f func(v *View)) {
	v := View{s: s}
	s.mu.RLock()
	f(&v)
	s.mu.RUnlock()
	if v.bytesRead != 0 {
		s.bytesRead.Add(v.bytesRead)
	}
	if v.eccReads != 0 {
		s.eccReads.Add(v.eccReads)
	}
}

// View is the handle passed to Space.View callbacks. Not safe for
// concurrent use; each goroutine opens its own view.
type View struct {
	s         *Space
	bytesRead uint64
	eccReads  uint64
}

// ReadInto fills dst from memory starting at addr, like Space.ReadInto.
func (v *View) ReadInto(dst []byte, addr uint64) {
	v.bytesRead += uint64(len(dst))
	v.s.readIntoLocked(dst, addr)
}

// Span returns the n bytes at addr as a slice of the backing page — no
// copy — counted as read traffic exactly as ReadInto counts them, after
// issuing one prefetch per 64-byte line so that a caller resolving
// several spans before touching any has their cache misses in flight
// together. The slice is read-only by contract and valid until the view
// closes. Span returns nil, counting nothing, when the range crosses a
// page boundary (pages are not contiguous) or the page was never written
// (there is no backing to point at); the caller then takes the ReadInto
// copy path, which handles both.
func (v *View) Span(addr uint64, n int) []byte {
	off := addr & (PageSize - 1)
	if n <= 0 || off+uint64(n) > PageSize {
		return nil
	}
	p := v.s.pages[addr-off]
	if p == nil {
		return nil
	}
	prefetchLines(&p[off], n)
	v.bytesRead += uint64(n)
	return p[off : off+uint64(n) : off+uint64(n)]
}

// ReadECCInto fetches the side-band tag for dataAddr (zeros if absent),
// like Space.ReadECCInto.
func (v *View) ReadECCInto(dst []byte, dataAddr uint64) {
	v.eccReads += uint64(len(dst))
	n := copy(dst, v.s.ecc[dataAddr])
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// WriteView is View's write-side counterpart: one Lock/Unlock pair and one
// update of each traffic counter cover a batch of writes. Table encryption
// builds a chunk of rows and their tags off the lock and stores the chunk
// in one session, where a Write per row and per tag took the lock, looked
// up the page and counted the traffic once each. The counters end up
// byte-identical to the same writes made one by one.
//
// The callback must only write through the view — calling any locking
// Space method from inside would deadlock against the held lock.
func (s *Space) WriteView(f func(w *WriteView)) {
	w := WriteView{s: s}
	s.mu.Lock()
	f(&w)
	s.mu.Unlock()
	if w.bytesWritten != 0 {
		s.bytesWritten.Add(w.bytesWritten)
	}
	if w.eccWrites != 0 {
		s.eccWrites.Add(w.eccWrites)
	}
}

// WriteView is the handle passed to Space.WriteView callbacks. Not safe
// for concurrent use.
type WriteView struct {
	s            *Space
	bytesWritten uint64
	eccWrites    uint64
}

// Write stores data at addr, like Space.Write: one page lookup per page
// the range touches.
func (w *WriteView) Write(addr uint64, data []byte) {
	w.bytesWritten += uint64(len(data))
	w.s.writeLocked(addr, data)
}

// WriteECC stores a side-band tag, like Space.WriteECC.
func (w *WriteView) WriteECC(dataAddr uint64, tag []byte) {
	w.eccWrites += uint64(len(tag))
	w.s.ecc[dataAddr] = bytes.Clone(tag)
}

// WriteECC stores a tag in the side-band ECC region, keyed by the data
// address it covers. Models the Ver-ECC placement where the tag travels on
// the ECC pins with the data and costs no extra data-bus access.
func (s *Space) WriteECC(dataAddr uint64, tag []byte) {
	s.eccWrites.Add(uint64(len(tag)))
	cp := make([]byte, len(tag))
	copy(cp, tag)
	s.mu.Lock()
	s.ecc[dataAddr] = cp
	s.mu.Unlock()
}

// ReadECC fetches the side-band tag for dataAddr, or zeros if absent.
func (s *Space) ReadECC(dataAddr uint64, n int) []byte {
	out := make([]byte, n)
	s.ReadECCInto(out, dataAddr)
	return out
}

// ReadECCInto fills dst with the side-band tag for dataAddr (zeros if
// absent) without allocating.
func (s *Space) ReadECCInto(dst []byte, dataAddr uint64) {
	s.eccReads.Add(uint64(len(dst)))
	s.mu.RLock()
	n := copy(dst, s.ecc[dataAddr])
	s.mu.RUnlock()
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Stats returns the cumulative traffic counters.
func (s *Space) Stats() Stats {
	return Stats{
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		ECCReads:     s.eccReads.Load(),
		ECCWrites:    s.eccWrites.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (s *Space) ResetStats() {
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	s.eccReads.Store(0)
	s.eccWrites.Store(0)
}

// --- Adversary primitives (threat model §II) -------------------------------

// FlipBit flips one bit, modeling an active bus/DRAM tampering attack.
// Does not count as legitimate traffic.
func (s *Space) FlipBit(addr uint64, bit uint) {
	if bit > 7 {
		panic(fmt.Sprintf("memory: bit index %d out of range", bit))
	}
	s.mu.Lock()
	p, off := s.page(addr, true)
	p[off] ^= 1 << bit
	s.mu.Unlock()
}

// TamperWrite overwrites memory without counting traffic — the adversary's
// raw write path.
func (s *Space) TamperWrite(addr uint64, data []byte) {
	s.writeRaw(addr, data)
}

// TamperECC overwrites a side-band tag.
func (s *Space) TamperECC(dataAddr uint64, tag []byte) {
	cp := make([]byte, len(tag))
	copy(cp, tag)
	s.mu.Lock()
	s.ecc[dataAddr] = cp
	s.mu.Unlock()
}

// Snapshot copies a region without counting traffic — the adversary's
// passive eavesdrop (cold-boot dump).
func (s *Space) Snapshot(addr uint64, n int) []byte {
	out := s.Read(addr, n)
	// Undo the traffic accounting: eavesdropping is not legitimate traffic.
	s.bytesRead.Add(^uint64(n - 1)) // two's-complement subtract
	return out
}

// Replay writes back a previously captured snapshot — the replay attack
// that version numbers defend against.
func (s *Space) Replay(addr uint64, snapshot []byte) {
	s.writeRaw(addr, snapshot)
}
