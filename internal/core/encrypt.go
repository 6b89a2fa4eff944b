package core

import (
	"runtime"
	"sync"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
)

// This file is the write path: the encoder behind EncryptTable, which every
// table creation (local, remote and cluster staging) and every rotation
// runs. The table is split into contiguous row ranges, one per worker — the
// paper's several OTP engines initializing memory side by side (§V-C2).
// Each shard opens its own keystream at its first row, draws a chunk's tag
// pads in one batched TagPads call, builds the chunk's ciphertext and tags
// in a pooled buffer and stores the chunk in one memory.WriteView session:
// one lock acquisition and one page lookup per page, where the serial loop
// took the lock per row and per tag. Pads depend only on (address,
// version), so the image is byte-identical for any shard count and chunk
// size (FuzzEncryptTableSharded).

// encryptChunkBytes is the write path's one constant: a shard stages about
// this much of the table image (rows and any co-located tags) before it
// stores it, and no table is split into shards smaller than one chunk.
// BenchmarkEncryptTable on a 2-vCPU box, rewriting the 16 MiB sls_local
// table (65 536 × 256 B rows, Ver-sep), median of 4 interleaved runs, in
// ms (the serial per-row loop this replaced: 46.5):
//
//	chunk     1 shard   2 shards
//	 16 KiB     36.0      21.0
//	 64 KiB     34.5      20.2
//	256 KiB     35.0      18.6
//	  1 MiB     33.5      20.1
//
// The time is flat across chunk sizes within the box's noise: what the
// chunk removes is the per-row lock, page lookup and counter update, and
// 64 KiB already amortizes them. The smallest flat size is kept because it
// is also the smallest shard and the staging each worker pools.
const encryptChunkBytes = 64 << 10

// encryptShards is the plan step of table encryption: the scheme's worker
// count, lowered so that every shard gets at least one full chunk — below
// that a goroutine and a keystream setup cost more than the shard saves.
func (s *Scheme) encryptShards(geo Geometry) int {
	w := s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	image := geo.Layout.NumRows * int(geo.Layout.RowStride())
	return max(1, min(w, image/encryptChunkBytes))
}

// encryptChunkRows is the number of rows in one encryptChunkBytes chunk.
func encryptChunkRows(geo Geometry) int {
	return max(1, encryptChunkBytes/int(geo.Layout.RowStride()))
}

// encryptRows writes every row's ciphertext and, under a tag placement,
// its tag, in `shards` contiguous row ranges that run concurrently, the
// first on the caller's goroutine. rows must already be validated: a shard
// cannot fail, so no range is ever left half written by another's error.
func (t *Table) encryptRows(mem *memory.Space, rows [][]uint64, shards, chunkRows int) {
	n := len(rows)
	shards = max(1, min(shards, n))
	var wg sync.WaitGroup
	for k := 1; k < shards; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.encryptShard(mem, rows, k*n/shards, (k+1)*n/shards, chunkRows)
		}()
	}
	t.encryptShard(mem, rows, 0, n/shards, chunkRows)
	wg.Wait()
}

// encodeBuf is one shard's chunk staging, pooled so that a table rotated
// every few hundred milliseconds allocates no new staging per rotation.
type encodeBuf struct {
	image []byte   // the chunk's rows at their stride, co-located tags in the gaps
	tags  []byte   // 16 bytes per row: its tag pad, then (Ver-sep, Ver-ECC) its tag
	addrs []uint64 // the rows' addresses, which their tag pads are drawn for
}

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

// encryptShard encrypts rows [lo, hi) a chunk at a time.
func (t *Table) encryptShard(mem *memory.Space, rows [][]uint64, lo, hi, chunkRows int) {
	if lo >= hi {
		return
	}
	lay := t.geo.Layout
	we := t.geo.Params.We
	stride := int(lay.RowStride())
	rowBytes := lay.RowBytes
	tagged := lay.Placement != memory.TagNone
	coloc := lay.Placement == memory.TagColoc

	chunkRows = min(chunkRows, hi-lo)
	buf := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(buf)
	buf.image = resized(buf.image, chunkRows*stride)
	buf.tags = resized(buf.tags, chunkRows*memory.TagBytes)
	buf.addrs = resized(buf.addrs, chunkRows)

	// Rows sit at a constant stride, so one keystream covers the shard: it
	// skips the co-located tag (if any) between consecutive rows.
	ks := t.scheme.gen.Keystream(otp.DomainData, lay.RowAddr(lo), t.version)
	for c := lo; c < hi; c += chunkRows {
		cnt := min(chunkRows, hi-c)
		image, tags := buf.image[:cnt*stride], buf.tags[:cnt*memory.TagBytes]
		for k := 0; k < cnt; k++ {
			if c+k > lo {
				ks.Skip(stride - rowBytes)
			}
			// Algorithm 1: c_j = p_j ⊖ e_j, pads drawn per 128-bit chunk.
			ks.SubPack(image[k*stride:k*stride+rowBytes], rows[c+k], we)
		}
		if tagged {
			addrs := buf.addrs[:cnt]
			for k := range addrs {
				addrs[k] = lay.RowAddr(c + k)
			}
			t.scheme.gen.TagPads(tags, addrs, t.version)
			for k := 0; k < cnt; k++ {
				// Algorithm 2: T_i = h_K(P_i); Algorithm 3: C_Ti = T_i − E_Ti mod q.
				pad := tags[k*memory.TagBytes : (k+1)*memory.TagBytes]
				b := field.Sub(t.resultChecksum(rows[c+k]), field.FromBytes(pad)).Bytes()
				if coloc {
					copy(image[k*stride+rowBytes:], b[:])
				} else {
					copy(pad, b[:])
				}
			}
		}
		storeChunk(mem, lay, c, image, tags)
	}
}

// storeChunk writes the chunk of rows starting at row c — its image and,
// for Ver-sep and Ver-ECC, its tags — in one WriteView session.
func storeChunk(mem *memory.Space, lay memory.Layout, c int, image, tags []byte) {
	w := mem.OpenWriteView()
	defer w.Close()
	w.Write(lay.RowAddr(c), image)
	switch lay.Placement {
	case memory.TagSep:
		w.Write(lay.TagAddr(c), tags)
	case memory.TagECC:
		for k := 0; k*memory.TagBytes < len(tags); k++ {
			w.WriteECC(lay.RowAddr(c+k), tags[k*memory.TagBytes:(k+1)*memory.TagBytes])
		}
	}
}
