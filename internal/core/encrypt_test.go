package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
)

// encryptTableSerial is the reference for the sharded encoder: the serial
// loop EncryptTable ran before it was sharded — one keystream over the
// whole table, one Write per row and per tag, one TagPad per row.
func encryptTableSerial(s *Scheme, mem *memory.Space, geo Geometry, version uint64, rows [][]uint64) *Table {
	t := s.openTable(geo, version)
	ct := make([]byte, geo.Params.RowBytes())
	gap := int(geo.Layout.RowStride()) - len(ct)
	ks := s.gen.Keystream(otp.DomainData, geo.Layout.Base, version)
	for i, row := range rows {
		if i > 0 {
			ks.Skip(gap)
		}
		ks.SubPack(ct, row, geo.Params.We)
		geo.Layout.WriteRow(mem, i, ct)
		if geo.Layout.Placement != memory.TagNone {
			tp := s.gen.TagPad(geo.Layout.RowAddr(i), version)
			eti := field.FromBytes(tp[:])
			b := field.Sub(t.resultChecksum(row), eti).Bytes()
			geo.Layout.WriteTag(mem, i, b[:])
		}
	}
	return t
}

// sameImage reports the first difference between two encryptions of geo:
// traffic counters, data region (with co-located tags), Ver-sep tag region
// and Ver-ECC side band, in that order. Reading the side band counts as
// traffic, so want's counters are taken before any comparison (wantStats)
// and got's are compared first.
func sameImage(geo Geometry, wantStats memory.Stats, want, got *memory.Space) error {
	if g := got.Stats(); g != wantStats {
		return fmt.Errorf("stats %+v, want %+v", g, wantStats)
	}
	lay := geo.Layout
	span := int(lay.DataEnd() - lay.Base)
	if !bytes.Equal(want.Snapshot(lay.Base, span), got.Snapshot(lay.Base, span)) {
		return fmt.Errorf("data image differs")
	}
	switch lay.Placement {
	case memory.TagSep:
		n := lay.NumRows * memory.TagBytes
		if !bytes.Equal(want.Snapshot(lay.TagBase, n), got.Snapshot(lay.TagBase, n)) {
			return fmt.Errorf("tag region differs")
		}
	case memory.TagECC:
		for i := 0; i < lay.NumRows; i++ {
			if !bytes.Equal(lay.ReadTag(want, i), lay.ReadTag(got, i)) {
				return fmt.Errorf("side-band tag of row %d differs", i)
			}
		}
	}
	return nil
}

// FuzzEncryptTableSharded is the write path's differential fuzzer: the
// sharded, chunked encoder at 1, 2, 3 and 7 workers, and EncryptTable with
// its own plan, must leave exactly the memory the serial reference leaves —
// data image, tags, ECC side band and traffic counters — for every tag
// placement and element width, row counts that do not divide by the
// worker count, chunks of any size, and rows that straddle page boundaries.
func FuzzEncryptTableSharded(f *testing.F) {
	// seed, placement, width, rows, row size, base offset, chunk, version
	f.Add(int64(1), uint8(0), uint8(0), uint16(37), uint8(0), uint16(0), uint8(4), uint64(1))
	f.Add(int64(2), uint8(1), uint8(1), uint16(100), uint8(2), uint16(255), uint8(7), uint64(9))
	f.Add(int64(3), uint8(2), uint8(2), uint16(299), uint8(7), uint16(4095), uint8(15), uint64(1<<30))
	f.Add(int64(4), uint8(3), uint8(3), uint16(64), uint8(5), uint16(1234), uint8(0), uint64(77))
	f.Add(int64(5), uint8(1), uint8(3), uint16(1), uint8(0), uint16(9), uint8(2), uint64(3))
	f.Add(int64(6), uint8(3), uint8(0), uint16(211), uint8(1), uint16(600), uint8(3), uint64(5))
	f.Add(int64(7), uint8(2), uint8(0), uint16(600), uint8(4), uint16(33), uint8(255), uint64(2))
	f.Fuzz(func(t *testing.T, seed int64, placement, width uint8, nRows uint16, size uint8, baseOff uint16, chunk uint8, version uint64) {
		we := []uint{8, 16, 32, 64}[width%4]
		p := memory.TagPlacement(placement % 4)
		blocks := 1 + int(size%8) // row size in 16-byte cipher blocks
		if p == memory.TagECC && blocks < 5 {
			blocks += 4 // Ver-ECC needs rows of at least two cache lines
		}
		m := blocks * otp.BlockBytes * 8 / int(we)
		n := 1 + int(nRows%600)
		// A 16-byte-aligned base anywhere in a page: with strides of 16 to
		// 144 bytes, rows and chunks land across page boundaries.
		geo := mkGeometry(p, n, m, we)
		geo.Layout.Base = 0x10000 + uint64(baseOff%256)*otp.BlockBytes
		geo.Layout.TagBase = geo.Layout.DataEnd() + uint64(baseOff>>8)*otp.BlockBytes
		version = 1 + version%otp.MaxVersion
		chunkRows := 1 + int(chunk%16)
		if chunk == 255 {
			chunkRows = encryptChunkRows(geo)
		}

		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		rows := randRows(rand.New(rand.NewSource(seed)), geo.ringOf(), n, m)
		want := memory.NewSpace()
		ref := encryptTableSerial(s, want, geo, version, rows)
		wantStats := want.Stats()

		for _, workers := range []int{1, 2, 3, 7} {
			got := memory.NewSpace()
			tab := s.openTable(geo, version)
			tab.encryptRows(got, rows, workers, chunkRows)
			if err := sameImage(geo, wantStats, want, got); err != nil {
				t.Fatalf("%v, %d rows × %d B, %d workers, %d-row chunks: %v", p, n, geo.Params.RowBytes(), workers, chunkRows, err)
			}
		}
		got := memory.NewSpace()
		tab, err := s.EncryptTable(got, geo, version, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameImage(geo, wantStats, want, got); err != nil {
			t.Fatalf("EncryptTable, %v, %d rows: %v", p, n, err)
		}
		if tab.Version() != ref.Version() || len(tab.seeds) != len(ref.seeds) || tab.seeds[0] != ref.seeds[0] {
			t.Fatal("EncryptTable handle differs from the reference's")
		}
	})
}

// TestEncryptTableShardPlan pins the planner: the worker count, capped so
// that no shard is smaller than one chunk, and never below one.
func TestEncryptTableShardPlan(t *testing.T) {
	s := newTestScheme(t)
	s.SetWorkers(4)
	for _, c := range []struct {
		rows, m int
		want    int
	}{
		{1, 32, 1},
		{511, 32, 1},     // 63.9 KiB: one chunk short
		{512, 32, 1},     // exactly one chunk
		{1000, 32, 1},    // 125 KiB: one full chunk and part of another
		{1024, 32, 2},    // two chunks
		{3 * 512, 32, 3}, // three chunks
		{65536, 64, 4},   // sls_local: capped by the workers
		{1 << 20, 8, 4},  // 32 MiB of 32-byte rows
	} {
		geo := mkGeometry(memory.TagSep, c.rows, c.m, 32)
		if got := s.encryptShards(geo); got != c.want {
			t.Errorf("%d rows × %d B: %d shards, want %d", c.rows, geo.Params.RowBytes(), got, c.want)
		}
	}
}

// BenchmarkEncryptTable times the sharded encoder on the sls_local table
// (65 536 × 64 × 32-bit rows, Ver-sep, 16 MiB) across shard counts and
// chunk sizes, rewriting one memory as a rotation does. The chunk sizes
// behind encryptChunkBytes come from here.
func BenchmarkEncryptTable(b *testing.B) {
	s, err := NewScheme(testKey)
	if err != nil {
		b.Fatal(err)
	}
	geo := mkGeometry(memory.TagSep, 65536, 64, 32)
	geo.Layout.TagBase = geo.Layout.DataEnd()
	rows := randRows(rand.New(rand.NewSource(1)), geo.ringOf(), 65536, 64)
	mem := memory.NewSpace()
	encryptTableSerial(s, mem, geo, 1, rows)
	for _, shards := range []int{1, 2} {
		for _, kib := range []int{16, 64, 256, 1024} {
			b.Run(fmt.Sprintf("shards=%d/chunk=%dKiB", shards, kib), func(b *testing.B) {
				b.SetBytes(int64(65536 * geo.Params.RowBytes()))
				for i := 0; i < b.N; i++ {
					s.openTable(geo, uint64(i+2)).encryptRows(mem, rows, shards, kib<<10/geo.Params.RowBytes())
				}
			})
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(65536 * geo.Params.RowBytes()))
		for i := 0; i < b.N; i++ {
			encryptTableSerial(s, mem, geo, uint64(i+2), rows)
		}
	})
}
