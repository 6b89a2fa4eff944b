package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"secndp/internal/memory"
)

// Fuzz targets: run continuously with `go test -fuzz=FuzzX ./internal/core`;
// under plain `go test` the seed corpus exercises the invariants.

// FuzzEncryptDecryptRoundTrip: for any plaintext bytes (interpreted as ring
// elements) and version, decryption inverts encryption.
func FuzzEncryptDecryptRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint64(1))
	f.Add(make([]byte, 32), uint64(99))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
		13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28}, uint64(1<<40))
	f.Fuzz(func(t *testing.T, raw []byte, version uint64) {
		if len(raw) < 32 {
			return
		}
		version = version%(1<<40) + 1
		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(memory.TagNone, 1, 8, 32) // one row of 8 32-bit elems
		r := geo.ringOf()
		row := make([]uint64, 8)
		for j := 0; j < 8; j++ {
			var e uint64
			for b := 0; b < 4; b++ {
				e |= uint64(raw[j*4+b]) << (8 * b)
			}
			row[j] = r.Reduce(e)
		}
		mem := memory.NewSpace()
		tab, err := s.EncryptTable(mem, geo, version, [][]uint64{row})
		if err != nil {
			t.Fatal(err)
		}
		got := tab.DecryptRow(mem, 0)
		for j := range row {
			if got[j] != row[j] {
				t.Fatalf("round trip failed at %d: %d != %d", j, got[j], row[j])
			}
		}
	})
}

// FuzzVerifyRejectsTamper: any single-byte corruption of a queried row or
// its tag must be detected (or be a no-op write of the same value).
func FuzzVerifyRejectsTamper(f *testing.F) {
	f.Add(uint16(0), byte(1))
	f.Add(uint16(131), byte(0x80))
	f.Add(uint16(1000), byte(0xFF))
	f.Add(uint16(1151), byte(0x80)) // bit 127 of row 3's tag
	f.Fuzz(func(t *testing.T, pos uint16, xor byte) {
		if xor == 0 {
			return // no-op corruption
		}
		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(memory.TagSep, 4, 32, 32)
		mem := memory.NewSpace()
		rows := make([][]uint64, 4)
		for i := range rows {
			rows[i] = make([]uint64, 32)
			for j := range rows[i] {
				rows[i][j] = uint64(i*32 + j)
			}
		}
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt one byte somewhere in the queried rows' data or tags.
		span := 4*geo.Layout.RowBytes + 4*memory.TagBytes
		off := int(pos) % span
		var addr uint64
		if off < 4*geo.Layout.RowBytes {
			addr = geo.Layout.Base + uint64(off)
		} else {
			addr = geo.Layout.TagBase + uint64(off-4*geo.Layout.RowBytes)
		}
		if off >= 4*geo.Layout.RowBytes && off%memory.TagBytes == memory.TagBytes-1 && xor == 0x80 {
			// Bit 127 of a stored tag is not part of the tag: tags are
			// elements of GF(2^127−1) and field.FromBytes truncates the
			// 16 bytes to 127 bits, so flipping only that bit leaves the
			// authenticated value unchanged — a no-op corruption too.
			return
		}
		orig := mem.Snapshot(addr, 1)[0]
		mem.TamperWrite(addr, []byte{orig ^ xor})

		ndp := &HonestNDP{Mem: mem}
		_, err = tab.QueryVerified(ndp, []int{0, 1, 2, 3}, []uint64{1, 1, 1, 1})
		if !errors.Is(err, ErrVerification) {
			t.Fatalf("corruption at %#x (xor %#x) not rejected: %v", addr, xor, err)
		}
	})
}

// FuzzQueryLinearity: for arbitrary weights and indices, decryption of the
// NDP result always equals the plaintext ring computation (no verification,
// so wrap-around is fine).
func FuzzQueryLinearity(f *testing.F) {
	f.Add(uint64(1), uint64(2), byte(0), byte(1))
	f.Add(^uint64(0), uint64(1)<<63, byte(3), byte(3))
	f.Fuzz(func(t *testing.T, w1, w2 uint64, i1, i2 byte) {
		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(memory.TagNone, 4, 32, 32)
		r := geo.ringOf()
		mem := memory.NewSpace()
		rows := make([][]uint64, 4)
		for i := range rows {
			rows[i] = make([]uint64, 32)
			for j := range rows[i] {
				rows[i][j] = uint64(i) << uint(j%16)
			}
		}
		tab, err := s.EncryptTable(mem, geo, 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		idx := []int{int(i1) % 4, int(i2) % 4}
		w := []uint64{w1, w2}
		got, err := queryUnverified(tab, &HonestNDP{Mem: mem}, idx, w)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			want := r.Reduce(w1*rows[idx[0]][j] + w2*rows[idx[1]][j])
			if got[j] != want {
				t.Fatalf("col %d: %d != %d", j, got[j], want)
			}
		}
	})
}

// FuzzBatchMatchesReference is the batch pipeline's equivalence oracle at
// the sizes where otpBatch fans pad generation out across workers: every
// distinct row of the table is referenced, by one sub-request or by
// several, and the distinct-row count ranges across 2×ctxCheckStride (the
// smallest tile that fans out) and batchTileRows (a second tile). The
// pipelined results must be byte-identical to per-request referenceQuery's
// — which shares no kernel with the engine — and every verification
// outcome the same, at every worker count and element width, a lone short
// request (the single-request seeds) walked without a plan. Rows and
// weights are bounded so an honest sum never wraps, and so verifies; with
// tamper set one row is corrupted, failing exactly the requests that read
// it.
func FuzzBatchMatchesReference(f *testing.F) {
	for _, d := range []uint16{5, 127, 128, 129, 300, 511, 512, 513, 1030} {
		f.Add(int64(d), d, uint8(d), uint8(d/3), uint8(d/7), d%2 == 1)
	}
	// Seeds whose batch is a single request: short ones walked by the
	// one-request arm, on every placement, and one long enough to be
	// planned.
	f.Add(int64(232), uint16(5), uint8(0), uint8(2), uint8(1), false)
	f.Add(int64(234), uint16(80), uint8(1), uint8(0), uint8(2), true)
	f.Add(int64(242), uint16(300), uint8(2), uint8(3), uint8(3), false)
	f.Add(int64(244), uint16(511), uint8(3), uint8(1), uint8(0), false)
	f.Add(int64(249), uint16(1030), uint8(3), uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, distinct uint16, workerSel, weSel, placeSel uint8, tamper bool) {
		we := []uint{8, 16, 32, 64}[weSel%4]
		workers := []int{1, 2, 3, 8}[workerSel%4]
		pl := []memory.TagPlacement{memory.TagNone, memory.TagSep, memory.TagColoc, memory.TagECC}[placeSel%4]
		verify := pl != memory.TagNone
		n := 1 + int(distinct)%(2*batchTileRows+64)
		rng := rand.New(rand.NewSource(seed))

		// Every row goes to one request; a third of them to one or two
		// more (shared rows), and a quarter of the uses twice to the same
		// request.
		reqs := make([]BatchRequest, 1+rng.Intn(64))
		for row := 0; row < n; row++ {
			uses := 1
			if rng.Intn(3) == 0 {
				uses += 1 + rng.Intn(2)
			}
			for range uses {
				ri := rng.Intn(len(reqs))
				for range 1 + rng.Intn(4)/3 {
					reqs[ri].Idx = append(reqs[ri].Idx, row)
					reqs[ri].Weights = append(reqs[ri].Weights, 1+uint64(rng.Intn(8)))
				}
			}
		}
		var maxW uint64 = 1
		for _, req := range reqs {
			var sum uint64
			for _, w := range req.Weights {
				sum += w
			}
			maxW = max(maxW, sum)
		}
		bound := uint64(1) << 32
		if we < 64 {
			bound = max(1, (uint64(1)<<we)/maxW)
		}

		s, err := NewScheme([]byte("fuzz-key-16bytes"))
		if err != nil {
			t.Fatal(err)
		}
		geo := mkGeometry(pl, n, 1024/int(we), we) // two cache lines: room for a Ver-ECC tag
		mem := memory.NewSpace()
		tab, err := s.EncryptTable(mem, geo, 1, boundedRows(rng, n, geo.Params.M, bound))
		if err != nil {
			t.Fatal(err)
		}
		if tamper {
			mem.FlipBit(geo.Layout.RowAddr(rng.Intn(n))+uint64(rng.Intn(geo.Layout.RowBytes)), uint(rng.Intn(8)))
		}
		ndp := &HonestNDP{Mem: mem}
		opts := QueryOptions{Workers: workers, Verify: verify}
		var stats BatchStats
		opts.Stats = &stats
		pipe := tab.QueryBatchCtx(context.Background(), ndp, reqs, opts)
		if !stats.Pipelined || stats.DistinctRows != n {
			t.Fatalf("batch of %d distinct rows: %+v", n, stats)
		}
		for i := range reqs {
			ref, fe := referenceQuery(tab, ndp, reqs[i].Idx, reqs[i].Weights, verify)
			pe := pipe[i].Err
			if (pe == nil) != (fe == nil) || (pe != nil && pe.Error() != fe.Error()) {
				t.Fatalf("request %d: pipelined err %v, reference err %v", i, pe, fe)
			}
			if pe != nil {
				if !tamper || !errors.Is(pe, ErrVerification) {
					t.Fatalf("request %d failed on an untampered table: %v", i, pe)
				}
				continue
			}
			got := pipe[i].Res
			if len(got) != geo.Params.M || len(ref) != geo.Params.M {
				t.Fatalf("request %d: widths %d and %d, want %d", i, len(got), len(ref), geo.Params.M)
			}
			for j := range got {
				if got[j] != ref[j] {
					t.Fatalf("request %d col %d: pipelined %d, reference %d", i, j, got[j], ref[j])
				}
			}
		}
	})
}
