package memory

import (
	"bytes"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewSpace()
	data := []byte("hello, untrusted world")
	s.Write(0x1234, data)
	if got := s.Read(0x1234, len(data)); !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	s := NewSpace()
	got := s.Read(0xDEAD000, 8)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("unwritten memory reads %v, want zeros", got)
		}
	}
}

func TestCrossPageWrite(t *testing.T) {
	s := NewSpace()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100) // straddles three pages
	s.Write(addr, data)
	if got := s.Read(addr, len(data)); !bytes.Equal(got, data) {
		t.Error("cross-page round trip failed")
	}
}

func TestPartialPageReadAcrossUnallocated(t *testing.T) {
	s := NewSpace()
	s.Write(0, []byte{1, 2, 3})
	// Read spanning the written page and an unallocated one.
	got := s.Read(PageSize-2, 4)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("expected zeros, got %v", got)
		}
	}
}

func TestStatsCount(t *testing.T) {
	s := NewSpace()
	s.Write(0, make([]byte, 100))
	s.Read(0, 40)
	s.Read(0, 24)
	st := s.Stats()
	if st.BytesWritten != 100 || st.BytesRead != 64 {
		t.Errorf("stats = %+v, want written=100 read=64", st)
	}
	s.ResetStats()
	if s.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestECCRoundTrip(t *testing.T) {
	s := NewSpace()
	tag := []byte("0123456789abcdef")
	s.WriteECC(0x40, tag)
	if got := s.ReadECC(0x40, 16); !bytes.Equal(got, tag) {
		t.Errorf("ECC round trip: %q", got)
	}
	if got := s.ReadECC(0x80, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Error("missing ECC entry should read as zeros")
	}
	st := s.Stats()
	if st.ECCWrites != 16 || st.ECCReads != 32 {
		t.Errorf("ECC stats = %+v", st)
	}
}

func TestECCWriteCopiesInput(t *testing.T) {
	s := NewSpace()
	tag := []byte{1, 2, 3, 4}
	s.WriteECC(0, tag)
	tag[0] = 99 // caller mutates its buffer afterwards
	if got := s.ReadECC(0, 4); got[0] != 1 {
		t.Error("WriteECC aliased the caller's buffer")
	}
}

func TestFlipBit(t *testing.T) {
	s := NewSpace()
	s.Write(10, []byte{0b1000})
	s.FlipBit(10, 3)
	if got := s.Read(10, 1)[0]; got != 0 {
		t.Errorf("after flip: %#b", got)
	}
	s.FlipBit(10, 0)
	if got := s.Read(10, 1)[0]; got != 1 {
		t.Errorf("after second flip: %#b", got)
	}
}

func TestFlipBitPanicsOnBadIndex(t *testing.T) {
	s := NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBit(bit=8) did not panic")
		}
	}()
	s.FlipBit(0, 8)
}

func TestTamperWriteDoesNotCount(t *testing.T) {
	s := NewSpace()
	s.TamperWrite(0, make([]byte, 64))
	if s.Stats().BytesWritten != 0 {
		t.Error("adversary writes counted as traffic")
	}
}

func TestSnapshotReplay(t *testing.T) {
	s := NewSpace()
	s.Write(0x100, []byte("version1-data"))
	snap := s.Snapshot(0x100, 13)
	s.Write(0x100, []byte("version2-data"))
	s.Replay(0x100, snap)
	if got := s.Read(0x100, 13); !bytes.Equal(got, []byte("version1-data")) {
		t.Errorf("replay did not restore stale data: %q", got)
	}
	if s.Stats().BytesRead != 13 {
		t.Errorf("snapshot counted as read traffic: %+v", s.Stats())
	}
}

func TestTagPlacementString(t *testing.T) {
	cases := map[TagPlacement]string{
		TagNone:          "Enc-only",
		TagColoc:         "Ver-coloc",
		TagSep:           "Ver-sep",
		TagECC:           "Ver-ECC",
		TagPlacement(99): "TagPlacement(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestLayoutRowAddr(t *testing.T) {
	l := Layout{Placement: TagSep, Base: 0x1000, TagBase: 0x9000, NumRows: 4, RowBytes: 128}
	if got := l.RowAddr(0); got != 0x1000 {
		t.Errorf("RowAddr(0) = %#x", got)
	}
	if got := l.RowAddr(3); got != 0x1000+3*128 {
		t.Errorf("RowAddr(3) = %#x", got)
	}
	if got := l.TagAddr(2); got != 0x9000+32 {
		t.Errorf("TagAddr(2) = %#x", got)
	}
}

func TestLayoutColocStride(t *testing.T) {
	l := Layout{Placement: TagColoc, Base: 0, NumRows: 3, RowBytes: 128}
	if got := l.RowStride(); got != 144 {
		t.Errorf("coloc stride = %d, want 144", got)
	}
	if got := l.TagAddr(1); got != 144+128 {
		t.Errorf("coloc TagAddr(1) = %d, want 272", got)
	}
	if got := l.DataEnd(); got != 3*144 {
		t.Errorf("DataEnd = %d", got)
	}
}

func TestLayoutRowAddrPanics(t *testing.T) {
	l := Layout{Placement: TagNone, NumRows: 2, RowBytes: 8}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row did not panic")
		}
	}()
	l.RowAddr(2)
}

func TestLayoutTagAddrUndefinedPanics(t *testing.T) {
	l := Layout{Placement: TagNone, NumRows: 2, RowBytes: 8}
	defer func() {
		if recover() == nil {
			t.Fatal("TagAddr on TagNone did not panic")
		}
	}()
	l.TagAddr(0)
}

func TestLayoutValidateECCFeasibility(t *testing.T) {
	// 128-byte rows: 2 lines × 8 ECC bytes = 16 ≥ 16-byte tag — feasible.
	ok := Layout{Placement: TagECC, NumRows: 1, RowBytes: 128}
	if err := ok.Validate(); err != nil {
		t.Errorf("128-byte row Ver-ECC should be feasible: %v", err)
	}
	// 32-byte quantized rows: 1 line × 8 = 8 < 16 — infeasible (paper §VII-A).
	bad := Layout{Placement: TagECC, NumRows: 1, RowBytes: 32}
	if err := bad.Validate(); err == nil {
		t.Error("32-byte row Ver-ECC should be infeasible")
	}
}

func TestLayoutValidateDimensions(t *testing.T) {
	if err := (Layout{Placement: TagNone, NumRows: -1, RowBytes: 8}).Validate(); err == nil {
		t.Error("negative rows accepted")
	}
	if err := (Layout{Placement: TagNone, NumRows: 1, RowBytes: 0}).Validate(); err == nil {
		t.Error("zero row bytes accepted")
	}
	// A placement off the end of the enum (a geometry off the wire) has no
	// tag address: the NDP's tag gather would panic on it.
	for _, p := range []TagPlacement{-1, TagECC + 1, 0x30} {
		if err := (Layout{Placement: p, NumRows: 1, RowBytes: 128}).Validate(); err == nil {
			t.Errorf("placement %d accepted", int(p))
		}
	}
}

func TestLayoutRowTagIO(t *testing.T) {
	s := NewSpace()
	for _, placement := range []TagPlacement{TagColoc, TagSep, TagECC} {
		l := Layout{Placement: placement, Base: 0x10000, TagBase: 0x90000, NumRows: 4, RowBytes: 128}
		row := bytes.Repeat([]byte{0xAB}, 128)
		tag := bytes.Repeat([]byte{0xCD}, TagBytes)
		l.WriteRow(s, 2, row)
		l.WriteTag(s, 2, tag)
		if got := l.ReadRow(s, 2); !bytes.Equal(got, row) {
			t.Errorf("%v: row round trip failed", placement)
		}
		if got := l.ReadTag(s, 2); !bytes.Equal(got, tag) {
			t.Errorf("%v: tag round trip failed", placement)
		}
	}
}

func TestLinesPerRowFetch(t *testing.T) {
	// 128-byte rows, line = 64B.
	cases := []struct {
		p    TagPlacement
		want int // for row 0
	}{
		{TagNone, 2},  // 128/64
		{TagColoc, 3}, // 144 bytes spans 3 lines
		{TagSep, 3},   // 2 data lines + 1 tag line
		{TagECC, 2},   // tag rides the ECC pins
	}
	for _, c := range cases {
		l := Layout{Placement: c.p, Base: 0, TagBase: 1 << 20, NumRows: 8, RowBytes: 128}
		if got := l.LinesPerRowFetch(0); got != c.want {
			t.Errorf("%v: lines = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestLinesPerRowFetchColocMisalignment(t *testing.T) {
	// Quantized 32-byte rows with coloc tags: stride 48; row 1 starts at 48,
	// ends at 96 (+16 tag = 112): spans lines 0 and 1 — 2 accesses, versus 1
	// for a dense 32-byte row. This is the paper's "data is not aligned with
	// the cache line boundary" effect.
	coloc := Layout{Placement: TagColoc, Base: 0, NumRows: 8, RowBytes: 32}
	if got := coloc.LinesPerRowFetch(1); got != 2 {
		t.Errorf("coloc quantized row 1: %d lines, want 2", got)
	}
	dense := Layout{Placement: TagNone, Base: 0, NumRows: 8, RowBytes: 32}
	if got := dense.LinesPerRowFetch(1); got != 1 {
		t.Errorf("dense quantized row 1: %d lines, want 1", got)
	}
}

func TestViewMatchesLockedReads(t *testing.T) {
	s := NewSpace()
	s.Write(100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	s.WriteECC(100, []byte{9, 10, 11})
	s.ResetStats()

	direct := s.Read(98, 12)
	directECC := s.ReadECC(100, 4)
	base := s.Stats()

	var viaView, viaViewECC []byte
	v := s.OpenView()
	viaView = make([]byte, 12)
	v.ReadInto(viaView, 98)
	viaViewECC = make([]byte, 4)
	v.ReadECCInto(viaViewECC, 100)
	v.Close()
	if !bytes.Equal(viaView, direct) {
		t.Fatalf("View.ReadInto = %v, Space.Read = %v", viaView, direct)
	}
	if !bytes.Equal(viaViewECC, directECC) {
		t.Fatalf("View.ReadECCInto = %v, Space.ReadECC = %v", viaViewECC, directECC)
	}
	// The view must account its traffic exactly like the per-read path.
	st := s.Stats()
	if st.BytesRead-base.BytesRead != 12 || st.ECCReads-base.ECCReads != 4 {
		t.Fatalf("view accounting: got %+v over %+v", st, base)
	}
}

// TestWriteViewPanicReleasesLock: a writer that panics inside its write
// session, deferring Close as the session asks, releases the write lock:
// a reader opening a view afterwards, and a plain Read, complete.
func TestWriteViewPanicReleasesLock(t *testing.T) {
	s := NewSpace()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the writer did not panic")
			}
		}()
		w := s.OpenWriteView()
		defer w.Close()
		w.Write(0x1000, []byte{1, 2, 3})
		panic("writer fails mid-session")
	}()
	done := make(chan []byte, 1)
	go func() {
		v := s.OpenView()
		got := make([]byte, 3)
		v.ReadInto(got, 0x1000)
		v.Close()
		done <- s.Read(0x1000, 3)
	}()
	select {
	case got := <-done:
		if !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatalf("read %v after the panicking session, want its write", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("readers still blocked 10 s after the writer panicked")
	}
}

// TestWriteViewMatchesWrites: writes made in one WriteView session leave
// the same bytes, side band and traffic counters as the same writes made
// one call at a time — across page boundaries, into fresh and written
// pages — and a side-band tag does not alias the caller's buffer.
func TestWriteViewMatchesWrites(t *testing.T) {
	data := make([]byte, 3*PageSize+100)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	tag := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	writes := []struct {
		addr uint64
		n    int
	}{
		{PageSize - 40, len(data)}, // four pages, starting near a page end
		{2*PageSize + 7, 300},      // over bytes already written
		{9 * PageSize, 16},         // a lone fresh page
	}

	direct, viaView := NewSpace(), NewSpace()
	for _, w := range writes {
		direct.Write(w.addr, data[:w.n])
	}
	direct.WriteECC(0x40, tag)
	v := viaView.OpenWriteView()
	for _, w := range writes {
		v.Write(w.addr, data[:w.n])
	}
	v.WriteECC(0x40, tag)
	v.Close()
	tag[0] = 99

	if d, v := direct.Stats(), viaView.Stats(); d != v {
		t.Fatalf("WriteView counted %+v, per-call writes %+v", v, d)
	}
	if !bytes.Equal(direct.Snapshot(0, 10*PageSize), viaView.Snapshot(0, 10*PageSize)) {
		t.Fatal("WriteView left different bytes than per-call writes")
	}
	if got := viaView.ReadECC(0x40, 16); !bytes.Equal(got, direct.ReadECC(0x40, 16)) {
		t.Fatalf("side-band tag %v after the caller reused its buffer", got)
	}
}

func TestLayoutViewReadsMatch(t *testing.T) {
	s := NewSpace()
	l := Layout{Placement: TagSep, Base: 64, TagBase: 4096, NumRows: 4, RowBytes: 32}
	row := make([]byte, 32)
	tag := make([]byte, TagBytes)
	for i := 0; i < 4; i++ {
		for j := range row {
			row[j] = byte(i*32 + j)
		}
		for j := range tag {
			tag[j] = byte(0xA0 + i)
		}
		l.WriteRow(s, i, row)
		l.WriteTag(s, i, tag)
	}
	// Rows and tags here sit inside one written page each, so the NDP's
	// zero-copy read (View.Span at the layout's addresses) must resolve
	// and agree with the locked copying reads.
	gotRows := make([][]byte, 4)
	gotTags := make([][]byte, 4)
	v := s.OpenView()
	for i := 0; i < 4; i++ {
		// A span dies with the view: copy it out.
		gotRows[i] = bytes.Clone(v.Span(l.RowAddr(i), l.RowBytes))
		gotTags[i] = bytes.Clone(v.Span(l.TagAddr(i), TagBytes))
	}
	v.Close()
	for i := 0; i < 4; i++ {
		if gotRows[i] == nil || !bytes.Equal(gotRows[i], l.ReadRow(s, i)) {
			t.Fatalf("row %d: view span %v diverges from locked read", i, gotRows[i])
		}
		if gotTags[i] == nil || !bytes.Equal(gotTags[i], l.ReadTag(s, i)) {
			t.Fatalf("tag %d: view span %v diverges from locked read", i, gotTags[i])
		}
	}
}
