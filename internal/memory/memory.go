// Package memory models the untrusted off-chip memory of SecNDP's threat
// model (paper §II, Figure 1). Everything stored here is visible to and
// modifiable by the adversary: the package exposes tamper primitives
// (bit flips, raw overwrites, replay of stale snapshots) used by the
// integrity tests, alongside ordinary read/write for the NDP units.
//
// The space is sparse (page-granular allocation) so multi-gigabyte
// embedding-table address ranges can be modeled without resident memory,
// and it counts traffic for the energy model. Pages are found through a
// dense two-level directory over the paper's 38-bit physical address
// space — a slice of 1 MiB regions, each an array of page pointers — so
// the gather resolves a row with two indexed loads and no hash; a page
// and its region cost at most two pages of allocation however far apart
// the writes land. Addresses above the 38-bit space fall back to a map.
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
	mu sync.RWMutex
	// dir is the page directory of the dense address range: dir[a>>20] is
	// the 1 MiB region holding address a (nil until a page of it is
	// written). The slice grows, doubling, past the highest region
	// written. A lookup is two indexed loads; see page.
	dir []*region
	// far holds the pages at or above denseLimit, keyed by page base. No
	// table places a row or tag there.
	far map[uint64]*[PageSize]byte
	ecc map[uint64][]byte // side-band tag storage keyed by data address

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
		far: make(map[uint64]*[PageSize]byte),
		ecc: make(map[uint64][]byte),
	}
}

const (
	pageShift   = 12
	regionShift = 20 // a region is 1 MiB: 256 pages
	regionPages = 1 << (regionShift - pageShift)
	// denseLimit is where the directory ends: the paper's w_A = 38-bit
	// physical address space, otp.MaxAddr+1. Every address a table
	// stores a row or tag at is below it.
	denseLimit = 1 << 38
)

// A region is one directory entry: a pointer per page, nil where no page
// is written. It is 2 KiB, which the allocator rounds to 2 304 B with the
// header it gives a pointer array over 512 B, so a write into a fresh
// region allocates less than two pages, over any spread of addresses. (A
// 2 MiB region of 512 slots is 4 KiB and rounds to 4 864 B: a page and a
// region would then cost more than two pages.) The top-level slice adds
// 8 bytes per 1 MiB up to at most twice the highest region written
// (2 MiB for the whole 38-bit space).
type region [regionPages]*[PageSize]byte

// page returns the page holding addr, nil if it was never written. The
// hot path of every gather (View.Span); it must stay small enough to
// inline (make inline-check).
func (s *Space) page(addr uint64) *[PageSize]byte {
	if i := addr >> regionShift; i < uint64(len(s.dir)) {
		if r := s.dir[i]; r != nil {
			return r[addr>>pageShift&(regionPages-1)]
		}
		return nil
	}
	return s.far[addr&^(PageSize-1)]
}

// allocPage returns the page holding addr, allocating it (and its
// directory entry) if it was never written. Callers hold the write lock.
func (s *Space) allocPage(addr uint64) *[PageSize]byte {
	if p := s.page(addr); p != nil {
		return p
	}
	p := new([PageSize]byte)
	if addr >= denseLimit {
		s.far[addr&^(PageSize-1)] = p
		return p
	}
	i := addr >> regionShift
	if i >= uint64(len(s.dir)) {
		// Double, so that the directories a space outgrows, one region at
		// a time, sum to less than the one it keeps.
		dir := make([]*region, min(max(i+1, 2*uint64(len(s.dir))), denseLimit>>regionShift))
		copy(dir, s.dir)
		s.dir = dir
	}
	r := s.dir[i]
	if r == nil {
		r = new(region)
		s.dir[i] = r
	}
	r[addr>>pageShift&(regionPages-1)] = p
	return p
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
		n := copy(s.allocPage(addr)[addr&(PageSize-1):], data)
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
		off := addr & (PageSize - 1)
		var n int
		if p := s.page(addr); p == nil {
			// Unallocated page reads as zeros.
			n = min(len(dst), PageSize-int(off))
			clear(dst[:n])
		} else {
			n = copy(dst, p[off:])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// OpenView starts a read-locked session over the space: one RLock/RUnlock
// pair and one traffic-counter update cover an entire gather loop, instead
// of one of each per row. The NDP row loops read hundreds of rows per
// query, and the per-read lock acquisition (a contended atomic even when
// uncontended by writers) was measurable at ~8% of a verified query.
//
// The view is returned by value so it lives in the caller's frame: the
// callback form this replaces handed &View to an unknown function, which
// moved every view to the heap, one allocation per gather. Close it
// exactly once, on every path (defer v.Close() where the loop can panic or
// return early); until then only read through it — calling any locking
// Space method (Write, FlipBit, even ReadInto) would deadlock against the
// held read lock.
func (s *Space) OpenView() View {
	s.mu.RLock()
	return View{s: s}
}

// View is a read session opened by Space.OpenView. Not safe for
// concurrent use; each goroutine opens its own view.
type View struct {
	s         *Space
	bytesRead uint64
	eccReads  uint64
}

// Close releases the view's read lock and adds the traffic it counted to
// the space's counters. Spans taken through the view die with it.
func (v *View) Close() {
	v.s.mu.RUnlock()
	if v.bytesRead != 0 {
		v.s.bytesRead.Add(v.bytesRead)
	}
	if v.eccReads != 0 {
		v.s.eccReads.Add(v.eccReads)
	}
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
	p := v.s.page(addr)
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

// OpenWriteView is OpenView's write-side counterpart: one Lock/Unlock pair
// and one update of each traffic counter cover a batch of writes. Table
// encryption builds a chunk of rows and their tags off the lock and stores
// the chunk in one session, where a Write per row and per tag took the
// lock, looked up the page and counted the traffic once each. The
// counters end up byte-identical to the same writes made one by one.
//
// Like a View, the session lives in the caller's frame. Close it exactly
// once, on every path — defer w.Close(), so a writer that panics releases
// the lock instead of blocking every later reader; until then only write
// through it — calling any locking Space method would deadlock against
// the held lock.
func (s *Space) OpenWriteView() WriteView {
	s.mu.Lock()
	return WriteView{s: s}
}

// WriteView is a write session opened by Space.OpenWriteView. Not safe
// for concurrent use.
type WriteView struct {
	s            *Space
	bytesWritten uint64
	eccWrites    uint64
}

// Close releases the session's write lock and adds the traffic it counted
// to the space's counters.
func (w *WriteView) Close() {
	w.s.mu.Unlock()
	if w.bytesWritten != 0 {
		w.s.bytesWritten.Add(w.bytesWritten)
	}
	if w.eccWrites != 0 {
		w.s.eccWrites.Add(w.eccWrites)
	}
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
	s.allocPage(addr)[addr&(PageSize-1)] ^= 1 << bit
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
