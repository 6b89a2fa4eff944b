package memory

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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
	v := s.OpenView()
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
	v.Close()
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
	v := s.OpenView()
	first := &v.Span(64, 4)[0]
	v.Close()
	s.FlipBit(64, 0)
	v = s.OpenView()
	sp := v.Span(64, 4)
	if &sp[0] != first {
		t.Error("two spans of one address are different memory")
	}
	if sp[0] != 0 {
		t.Errorf("span shows %d after the flip, want 0", sp[0])
	}
	v.Close()
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

// spanWindowAddr places a 16-bit fuzz address: its top three bits pick
// one of the edges FuzzSpaceMatchesModel also draws around, its low 13 an
// offset in the 8 KiB window centred on that edge. The first window
// starts at 0, so an address below 0x2000 is itself.
func spanWindowAddr(a uint16) uint64 {
	base := edges[a>>13]
	if base != 0 {
		base -= PageSize
	}
	return base + uint64(a&0x1FFF)
}

// FuzzSpanMatchesReadInto: after arbitrary writes, for arbitrary (addr, n)
// Span is either nil or byte-equal to ReadInto, and the read is counted as
// n bytes whichever path served it — the invariant that lets the NDP
// gather use spans without moving the energy model's input.
func FuzzSpanMatchesReadInto(f *testing.F) {
	f.Add([]byte{0, 0, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(0), uint16(16))
	f.Add([]byte{0xF8, 0x0F, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(0x0FF0), uint16(272))
	f.Add([]byte{}, uint16(4096), uint16(64))
	// Across the first region edge, and across the end of the dense range.
	f.Add([]byte{0xF8, 0x4F, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(0x4FF8), uint16(8))
	f.Add([]byte{0xF0, 0xAF, 32, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}, uint16(0xB000), uint16(16))
	f.Fuzz(func(t *testing.T, writes []byte, addr16, n16 uint16) {
		// writes is a list of records: address (2 bytes, placed by
		// spanWindowAddr), length (2 bytes, capped), then that many
		// payload bytes. Eight 8 KiB windows keep written and unwritten
		// pages both likely, around page, region and directory edges.
		s := NewSpace()
		for len(writes) >= 4 {
			a := spanWindowAddr(binary.LittleEndian.Uint16(writes))
			l := int(binary.LittleEndian.Uint16(writes[2:])) % 600
			writes = writes[4:]
			l = min(l, len(writes))
			s.Write(a, writes[:l])
			writes = writes[l:]
		}
		addr, n := spanWindowAddr(addr16), int(n16)%(PageSize+64)
		s.ResetStats()
		want := make([]byte, n)
		v := s.OpenView()
		v.ReadInto(want, addr)
		if sp := v.Span(addr, n); sp != nil {
			if !bytes.Equal(sp, want) {
				t.Fatalf("Span(%d, %d) differs from ReadInto", addr, n)
			}
		} else {
			// What the gather does when Span declines.
			v.ReadInto(make([]byte, n), addr)
		}
		v.Close()
		if got := s.Stats().BytesRead; got != 2*uint64(n) {
			t.Fatalf("BytesRead = %d after two reads of %d bytes", got, n)
		}
	})
}

// BenchmarkViewSpan is the sls_local gather's page lookups: per op one
// View resolving 80 random 256-byte rows of a 16 MiB Ver-sep table and
// their tags as spans, the bytes left untouched.
func BenchmarkViewSpan(b *testing.B) {
	const rows, rowBytes, bag = 65536, 256, 80
	l := Layout{Placement: TagSep, Base: 0x1000, NumRows: rows, RowBytes: rowBytes}
	l.TagBase = l.DataEnd()
	s := NewSpace()
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for a := l.Base; a < l.TagBase+rows*TagBytes; a += uint64(len(chunk)) {
		s.Write(a, chunk)
	}
	rng := rand.New(rand.NewSource(1))
	bags := make([][bag]int, 256)
	for i := range bags {
		for j := range bags[i] {
			bags[i][j] = rng.Intn(rows)
		}
	}
	var resolved int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := &bags[i%len(bags)]
		v := s.OpenView()
		for _, r := range idx {
			resolved += len(v.Span(l.RowAddr(r), rowBytes)) + len(v.Span(l.TagAddr(r), TagBytes))
		}
		v.Close()
	}
	if resolved != b.N*bag*(rowBytes+TagBytes) {
		b.Fatalf("resolved %d bytes, want %d", resolved, b.N*bag*(rowBytes+TagBytes))
	}
}
