package memory

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestSpanResolvesOrDeclines pins Span's contract case by case: inside one
// written page it is the page's own bytes; across a page boundary, on a
// never-written page, or for an empty range it is nil and counts nothing
// (the caller's ReadInto then counts the read).
func TestSpanResolvesOrDeclines(t *testing.T) {
	s := NewSpace()
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	s.Write(PageSize, data) // pages 1 and 2 written, 0 and 3 not
	s.ResetStats()

	cases := []struct {
		name string
		addr uint64
		n    int
		want bool
	}{
		{"whole page", PageSize, PageSize, true},
		{"interior", PageSize + 100, 272, true},
		{"last bytes of a page", 2*PageSize - 16, 16, true},
		{"unaligned to a line", PageSize + 48, 32, true},
		{"straddles two written pages", 2*PageSize - 100, 272, false},
		{"one byte over the page end", 2*PageSize - 16, 17, false},
		{"larger than a page", PageSize, PageSize + 1, false},
		{"never-written page", 0, 64, false},
		{"written into unwritten", 3*PageSize - 8, 16, false},
		{"empty", PageSize, 0, false},
		{"negative", PageSize, -1, false},
	}
	var counted uint64
	s.View(func(v *View) {
		for _, c := range cases {
			got := v.Span(c.addr, c.n)
			if (got != nil) != c.want {
				t.Errorf("%s: Span(%d, %d) resolved=%v, want %v", c.name, c.addr, c.n, got != nil, c.want)
				continue
			}
			if got == nil {
				continue
			}
			counted += uint64(c.n)
			if len(got) != c.n || cap(got) != c.n {
				t.Errorf("%s: len %d cap %d, want both %d (a span must not reach past its range)", c.name, len(got), cap(got), c.n)
			}
			if want := data[c.addr-PageSize:][:c.n]; !bytes.Equal(got, want) {
				t.Errorf("%s: span bytes differ from what was written", c.name)
			}
		}
	})
	if got := s.Stats().BytesRead; got != counted {
		t.Errorf("BytesRead = %d, want %d (resolved spans only)", got, counted)
	}
}

// TestSpanIsZeroCopy: a span aliases the page, so a write made after the
// reader's view closed is what the next view's span shows, with no stale
// copy in between.
func TestSpanIsZeroCopy(t *testing.T) {
	s := NewSpace()
	s.Write(64, []byte{1, 2, 3, 4})
	var first *byte
	s.View(func(v *View) { first = &v.Span(64, 4)[0] })
	s.FlipBit(64, 0)
	s.View(func(v *View) {
		sp := v.Span(64, 4)
		if &sp[0] != first {
			t.Error("two spans of one address are different memory")
		}
		if sp[0] != 0 {
			t.Errorf("span shows %d after the flip, want 0", sp[0])
		}
	})
}

// TestPrefetchLinesTouchesNothing: the prefetch kernel (or its no-op twin)
// neither faults nor writes for any alignment and length inside a buffer,
// including the empty range at its very end.
func TestPrefetchLinesTouchesNothing(t *testing.T) {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	want := bytes.Clone(buf)
	for off := 0; off < 130; off++ {
		for _, n := range []int{0, 1, 15, 16, 63, 64, 65, 256, 272, len(buf) - off} {
			prefetchLines(&buf[off], n)
		}
	}
	prefetchLines(&buf[len(buf)-1], 1)
	if !bytes.Equal(buf, want) {
		t.Fatal("prefetch changed memory")
	}
}

// FuzzSpanMatchesReadInto: after arbitrary writes, for arbitrary (addr, n)
// Span is either nil or byte-equal to ReadInto, and the read is counted as
// n bytes whichever path served it — the invariant that lets the NDP
// gather use spans without moving the energy model's input.
func FuzzSpanMatchesReadInto(f *testing.F) {
	f.Add([]byte{0, 0, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(0), uint16(16))
	f.Add([]byte{0xF8, 0x0F, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(0x0FF0), uint16(272))
	f.Add([]byte{}, uint16(4096), uint16(64))
	f.Fuzz(func(t *testing.T, writes []byte, addr16, n16 uint16) {
		// writes is a list of records: address (2 bytes), length (2
		// bytes, capped), then that many payload bytes. The 64 KiB
		// address space keeps written and unwritten pages both likely.
		s := NewSpace()
		for len(writes) >= 4 {
			a := uint64(binary.LittleEndian.Uint16(writes))
			l := int(binary.LittleEndian.Uint16(writes[2:])) % 600
			writes = writes[4:]
			l = min(l, len(writes))
			s.Write(a, writes[:l])
			writes = writes[l:]
		}
		addr, n := uint64(addr16), int(n16)%(PageSize+64)
		s.ResetStats()
		want := make([]byte, n)
		s.View(func(v *View) {
			v.ReadInto(want, addr)
			if sp := v.Span(addr, n); sp != nil {
				if !bytes.Equal(sp, want) {
					t.Fatalf("Span(%d, %d) differs from ReadInto", addr, n)
				}
			} else {
				// What the gather does when Span declines.
				v.ReadInto(make([]byte, n), addr)
			}
		})
		if got := s.Stats().BytesRead; got != 2*uint64(n) {
			t.Fatalf("BytesRead = %d after two reads of %d bytes", got, n)
		}
	})
}
