package memory

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// edges are what the memory fuzzers draw their addresses around: pages,
// 1 MiB regions, the last region and the end of the directory's dense
// range, and the fallback map above it.
var edges = [8]uint64{
	0,
	PageSize,
	1 << regionShift,
	3 << regionShift,
	denseLimit - 1<<regionShift,
	denseLimit,
	denseLimit + 7<<regionShift,
	1 << 62,
}

// spaceModel is the reference FuzzSpaceMatchesModel checks a Space
// against: the bytes ever stored, the pages ever allocated, and the
// traffic the four counters should read.
type spaceModel struct {
	bytes map[uint64]byte
	pages map[uint64]bool
	stats Stats
}

func (m *spaceModel) write(addr uint64, data []byte) {
	for i, b := range data {
		a := addr + uint64(i)
		m.bytes[a] = b
		m.pages[a&^(PageSize-1)] = true
	}
}

func (m *spaceModel) read(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.bytes[addr+uint64(i)]
	}
	return out
}

// spans reports whether View.Span(addr, n) must resolve: a non-empty
// range inside one page that was written.
func (m *spaceModel) spans(addr uint64, n int) bool {
	return n > 0 && addr&(PageSize-1)+uint64(n) <= PageSize && m.pages[addr&^(PageSize-1)]
}

// FuzzSpaceMatchesModel runs a program of writes (Write, WriteView.Write,
// TamperWrite, Replay, FlipBit) and reads (Snapshot, ReadInto, View.Span)
// decoded from its input against a Space and a byte-map reference, and
// checks after every step the bytes read, that Span is nil exactly when
// the range crosses a page or touches a page never written, and all four
// traffic counters — which the adversary's primitives (TamperWrite,
// Replay, FlipBit, Snapshot) leave alone.
func FuzzSpaceMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 16, 0, 1, 7, 0, 0, 0, 0, 16, 0})
	// A write over the first region edge, spans on both sides of it.
	f.Add([]byte{1, 2, 0xF8, 0xFF, 16, 0, 3, 7, 2, 0xF8, 0xFF, 8, 0, 0, 7, 2, 0, 0, 8, 0, 0})
	// A tamper across the end of the dense range, a flip above it, a
	// snapshot over both and its replay.
	f.Add([]byte{2, 5, 0xF0, 0xFF, 32, 0, 9, 4, 5, 3, 0, 0, 0, 5, 5, 0xF0, 0xFF, 64, 0, 0, 3, 0, 0, 0, 0, 0, 6, 5, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := NewSpace()
		m := &spaceModel{bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
		var snapAddr uint64
		var snap []byte
		// Each step is 7 bytes: op, anchor, a signed 16-bit offset from
		// the anchor, a 16-bit length and a payload seed.
		for step := 0; len(prog) >= 7; step++ {
			op, anchor := prog[0]%8, edges[prog[1]%8]
			delta := int64(int16(binary.LittleEndian.Uint16(prog[2:])))
			n := int(binary.LittleEndian.Uint16(prog[4:])) % (PageSize + 64)
			seed := prog[6]
			prog = prog[7:]
			addr := anchor + uint64(delta)
			if delta < 0 && uint64(-delta) > anchor {
				addr = uint64(-delta)
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = seed + byte(i*13)
			}
			switch op {
			case 0:
				s.Write(addr, data)
				m.write(addr, data)
				m.stats.BytesWritten += uint64(n)
			case 1:
				// Two writes in one session, the second just past the first.
				w := s.OpenWriteView()
				w.Write(addr, data)
				w.Write(addr+uint64(n), data[:n/2])
				w.Close()
				m.write(addr, data)
				m.write(addr+uint64(n), data[:n/2])
				m.stats.BytesWritten += uint64(n + n/2)
			case 2:
				s.TamperWrite(addr, data)
				m.write(addr, data)
			case 3:
				if snap != nil {
					s.Replay(snapAddr, snap)
					m.write(snapAddr, snap)
				}
			case 4:
				bit := uint(seed % 8)
				s.FlipBit(addr, bit)
				m.write(addr, []byte{m.bytes[addr] ^ 1<<bit})
			case 5:
				snapAddr, snap = addr, s.Snapshot(addr, n)
				if want := m.read(addr, n); !bytes.Equal(snap, want) {
					t.Fatalf("step %d: Snapshot(%#x, %d) differs from the model", step, addr, n)
				}
			case 6:
				got := make([]byte, n)
				s.ReadInto(got, addr)
				m.stats.BytesRead += uint64(n)
				if want := m.read(addr, n); !bytes.Equal(got, want) {
					t.Fatalf("step %d: ReadInto(%#x, %d) differs from the model", step, addr, n)
				}
			case 7:
				// Spans of n bytes at addr and at the next two offsets a
				// seed apart, in one view.
				v := s.OpenView()
				for k := uint64(0); k < 3; k++ {
					a := addr + k*uint64(seed)
					sp := v.Span(a, n)
					if want := m.spans(a, n); (sp != nil) != want {
						t.Fatalf("step %d: Span(%#x, %d) resolved=%v, want %v", step, a, n, sp != nil, want)
					}
					if sp == nil {
						continue
					}
					m.stats.BytesRead += uint64(n)
					if len(sp) != n || cap(sp) != n || !bytes.Equal(sp, m.read(a, n)) {
						t.Fatalf("step %d: Span(%#x, %d) differs from the model", step, a, n)
					}
				}
				v.Close()
			}
			if got := s.Stats(); got != m.stats {
				t.Fatalf("step %d (op %d at %#x, %d bytes): stats %+v, want %+v", step, op, addr, n, got, m.stats)
			}
		}
		// Every page the model holds, read back without counting.
		for base := range m.pages {
			if !bytes.Equal(s.Snapshot(base, PageSize), m.read(base, PageSize)) {
				t.Fatalf("page %#x differs from the model", base)
			}
		}
	})
}

// TestWriteViewGrowsDirectoryBesideReaders: readers resolving rows through
// View.Span see every stable row intact and every page of a region being
// filled either absent or whole, while one writer fills pages of fresh
// regions — one of them the last of the dense range, which extends the
// top-level slice to its full size — and flips bits and tampers with a
// page the readers also span. Run under -race by make write-check.
func TestWriteViewGrowsDirectoryBesideReaders(t *testing.T) {
	const rowBytes, rows = 256, 512
	s := NewSpace()
	stable := make([]byte, rows*rowBytes)
	for i := range stable {
		stable[i] = byte(i * 7)
	}
	s.Write(0, stable)
	hot := uint64(1 << 20) // a page the writer flips and tampers with
	s.Write(hot, make([]byte, PageSize))
	fresh := []uint64{3 << regionShift, 40 << regionShift, 1000 << regionShift, denseLimit - PageSize, 9 << regionShift}
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, PageSize) }

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				v := s.OpenView()
				for k := 0; k < 16; k++ {
					row := (iter*16 + k*31 + r) % rows
					sp := v.Span(uint64(row*rowBytes), rowBytes)
					if !bytes.Equal(sp, stable[row*rowBytes:][:rowBytes]) {
						t.Errorf("reader %d: row %d changed under it", r, row)
					}
				}
				if v.Span(hot+64, 64) == nil {
					t.Errorf("reader %d: the tampered page vanished", r)
				}
				for i, a := range fresh {
					if sp := v.Span(a, PageSize); sp != nil && !bytes.Equal(sp, page(i)) {
						t.Errorf("reader %d: fresh page %#x seen half written", r, a)
					}
				}
				v.Close()
				if t.Failed() {
					return
				}
			}
		}(r)
	}
	for i, a := range fresh {
		if i%2 == 0 {
			w := s.OpenWriteView()
			w.Write(a, page(i))
			w.Close()
		} else {
			s.Write(a, page(i))
		}
		s.FlipBit(hot+uint64(i), uint(i%8))
		s.TamperWrite(hot+128, page(i)[:256])
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if got := len(s.dir); got != denseLimit>>regionShift {
		t.Errorf("directory has %d regions after a write to the last one, want %d", got, denseLimit>>regionShift)
	}
}

// TestDirectoryCannotAmplifyMemory: one byte written into each of K
// regions spread up to the top of the 38-bit space allocates at most two
// pages per byte (its page and its region's slot array) plus the
// top-level slice — so a peer shipping tiny blobs
// across the address space costs no more than it did against a page map.
// Written top region first the slice is allocated once; written bottom
// first it doubles its way up, and the slices it outgrows sum to less
// than the last.
func TestDirectoryCannotAmplifyMemory(t *testing.T) {
	const K = 64
	topLevel := uint64(8 * (denseLimit >> regionShift)) // 2 MiB
	addrs := make([]uint64, K)
	for i := range addrs {
		addrs[i] = uint64(i+1)*(denseLimit/K) - 1 - uint64(i)*PageSize*3
	}
	for _, tc := range []struct {
		name  string
		order func(i int) int
		slice uint64
	}{
		{"top first", func(i int) int { return K - 1 - i }, topLevel},
		{"bottom first", func(i int) int { return i }, 2 * topLevel},
	} {
		s := NewSpace()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < K; i++ {
			s.TamperWrite(addrs[tc.order(i)], []byte{1})
		}
		runtime.ReadMemStats(&after)
		got, bound := after.TotalAlloc-before.TotalAlloc, K*2*PageSize+tc.slice
		if got > bound {
			t.Errorf("%s: %d one-byte writes allocated %d bytes, bound %d", tc.name, K, got, bound)
		}
		t.Logf("%s: %d one-byte writes allocated %d bytes (bound %d)", tc.name, K, got, bound)
		for _, a := range addrs {
			if s.Snapshot(a, 1)[0] != 1 {
				t.Fatalf("%s: byte at %#x lost", tc.name, a)
			}
		}
	}
}
