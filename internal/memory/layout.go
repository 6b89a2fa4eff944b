package memory

import "fmt"

// TagPlacement selects where verification tags live relative to table data,
// the three options of paper §V-D. The placement changes both the
// functional addressing (this package) and the number/locality of DRAM
// accesses (internal/sim).
type TagPlacement int

const (
	// TagNone: encryption-only operation, no tags stored.
	TagNone TagPlacement = iota
	// TagColoc co-locates each row's tag immediately after the row's data
	// (Ver-coloc): likely same DRAM row, but rows become unaligned.
	TagColoc
	// TagSep stores all tags in a separate dedicated region (Ver-sep):
	// binary layout unchanged, but each tag fetch is an extra DRAM access
	// to a different row.
	TagSep
	// TagECC stores tags in the ECC chip side-band (Ver-ECC): no extra
	// data-bus access, but fixed capacity (fails for short quantized rows
	// whose tag exceeds the per-line ECC budget — paper §VII-A).
	TagECC
)

// String implements fmt.Stringer.
func (p TagPlacement) String() string {
	switch p {
	case TagNone:
		return "Enc-only"
	case TagColoc:
		return "Ver-coloc"
	case TagSep:
		return "Ver-sep"
	case TagECC:
		return "Ver-ECC"
	}
	return fmt.Sprintf("TagPlacement(%d)", int(p))
}

// TagBytes is the verification tag size: a 128-bit tag per row (§VII-A).
const TagBytes = 16

// ECCBytesPerLine is the side-band capacity of an ECC DIMM: 8 bytes per
// 64-byte line (a x72 DIMM with the ECC bits freed up by storing ECC
// elsewhere, Synergy-style [63]).
const ECCBytesPerLine = 8

// CacheLineBytes is the processor cache line / DRAM burst size.
const CacheLineBytes = 64

// Layout computes the physical placement of an n×m element table with
// per-row tags. It is public information (the adversary and the NDP both
// know it).
type Layout struct {
	Placement TagPlacement
	Base      uint64 // starting address of the data region
	TagBase   uint64 // starting address of the tag region (TagSep only)
	NumRows   int
	RowBytes  int // bytes of data per row (m × we/8)
}

// Validate checks geometric feasibility, mirroring the paper's observation
// that Ver-ECC cannot hold tags for short quantized rows: the ECC side-band
// provides ECCBytesPerLine per data line, so a row spanning L lines offers
// L×8 bytes, which must fit the 16-byte tag.
func (l Layout) Validate() error {
	if l.NumRows < 0 || l.RowBytes <= 0 {
		return fmt.Errorf("memory: invalid layout dimensions n=%d rowBytes=%d", l.NumRows, l.RowBytes)
	}
	if l.Placement < TagNone || l.Placement > TagECC {
		return fmt.Errorf("memory: unknown tag placement %d", int(l.Placement))
	}
	if l.Placement == TagECC {
		lines := (l.RowBytes + CacheLineBytes - 1) / CacheLineBytes
		if lines*ECCBytesPerLine < TagBytes {
			return fmt.Errorf("memory: Ver-ECC infeasible: row of %d bytes spans %d line(s) providing %d ECC bytes < %d-byte tag",
				l.RowBytes, lines, lines*ECCBytesPerLine, TagBytes)
		}
	}
	return nil
}

// RowStride is the distance between consecutive rows' data.
func (l Layout) RowStride() uint64 {
	if l.Placement == TagColoc {
		return uint64(l.RowBytes + TagBytes)
	}
	return uint64(l.RowBytes)
}

// rowRange is the panic value of an out-of-range row index. Panicking
// with this small typed value, formatted only if someone prints it, keeps
// RowAddr under the compiler's inlining budget (`make inline-check`). As
// a call it copied the Layout through the stack with 8-byte stores and
// 16-byte reloads, a store-forward miss that cannot complete until every
// older load — the previous row's cache miss — has retired, so per-row
// callers paid the memory latency once per row.
type rowRange struct{ row, numRows int }

func (e rowRange) Error() string {
	return fmt.Sprintf("memory: row %d out of range [0,%d)", e.row, e.numRows)
}

// RowAddr returns the physical address of row i's data.
func (l Layout) RowAddr(i int) uint64 {
	if i < 0 || i >= l.NumRows {
		panic(rowRange{i, l.NumRows})
	}
	return l.Base + uint64(i)*l.RowStride()
}

// TagAddr returns the physical address of row i's tag for placements that
// store tags in the data address space (TagColoc, TagSep). For TagECC the
// tag is keyed by RowAddr(i) in the side band; TagNone has no tags.
func (l Layout) TagAddr(i int) uint64 {
	switch l.Placement {
	case TagColoc:
		return l.RowAddr(i) + uint64(l.RowBytes)
	case TagSep:
		if i < 0 || i >= l.NumRows {
			panic(rowRange{i, l.NumRows})
		}
		return l.TagBase + uint64(i)*TagBytes
	default:
		panic(fmt.Sprintf("memory: TagAddr undefined for placement %v", l.Placement))
	}
}

// DataEnd returns the first address past the data region (including
// co-located tags).
func (l Layout) DataEnd() uint64 {
	return l.Base + uint64(l.NumRows)*l.RowStride()
}

// ReadRow fetches row i's data bytes.
func (l Layout) ReadRow(s *Space, i int) []byte {
	return s.Read(l.RowAddr(i), l.RowBytes)
}

// ReadRowInto fetches row i's data bytes into dst — the allocation-free
// form for hot paths that reuse one scratch buffer across rows. len(dst)
// must equal RowBytes.
func (l Layout) ReadRowInto(s *Space, i int, dst []byte) {
	if len(dst) != l.RowBytes {
		panic("memory: ReadRowInto size mismatch")
	}
	s.ReadInto(dst, l.RowAddr(i))
}

// WriteRow stores row i's data bytes. len(data) must equal RowBytes.
func (l Layout) WriteRow(s *Space, i int, data []byte) {
	if len(data) != l.RowBytes {
		panic("memory: WriteRow size mismatch")
	}
	s.Write(l.RowAddr(i), data)
}

// ReadTag fetches row i's tag through the placement-appropriate path.
func (l Layout) ReadTag(s *Space, i int) []byte {
	switch l.Placement {
	case TagColoc, TagSep:
		return s.Read(l.TagAddr(i), TagBytes)
	case TagECC:
		return s.ReadECC(l.RowAddr(i), TagBytes)
	default:
		panic("memory: ReadTag with no tag placement")
	}
}

// ReadTagInto fetches row i's tag into dst through the
// placement-appropriate path, without allocating. len(dst) must equal
// TagBytes.
func (l Layout) ReadTagInto(s *Space, i int, dst []byte) {
	if len(dst) != TagBytes {
		panic("memory: ReadTagInto size mismatch")
	}
	switch l.Placement {
	case TagColoc, TagSep:
		s.ReadInto(dst, l.TagAddr(i))
	case TagECC:
		s.ReadECCInto(dst, l.RowAddr(i))
	default:
		panic("memory: ReadTagInto with no tag placement")
	}
}

// WriteTag stores row i's tag through the placement-appropriate path.
func (l Layout) WriteTag(s *Space, i int, tag []byte) {
	if len(tag) != TagBytes {
		panic("memory: WriteTag size mismatch")
	}
	switch l.Placement {
	case TagColoc, TagSep:
		s.Write(l.TagAddr(i), tag)
	case TagECC:
		s.WriteECC(l.RowAddr(i), tag)
	default:
		panic("memory: WriteTag with no tag placement")
	}
}

// LinesPerRowFetch returns how many 64-byte memory accesses one row fetch
// costs, including the tag, under this placement — the quantity that drives
// the Fig. 9 performance differences. Rows are assumed aligned to their
// stride from Base (itself line-aligned).
func (l Layout) LinesPerRowFetch(i int) int {
	start := l.RowAddr(i)
	end := start + uint64(l.RowBytes)
	if l.Placement == TagColoc {
		end += TagBytes // tag is contiguous with the data
	}
	lines := int((end+CacheLineBytes-1)/CacheLineBytes - start/CacheLineBytes)
	if l.Placement == TagSep {
		lines++ // separate fetch for the tag line
	}
	return lines
}
