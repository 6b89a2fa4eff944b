package core

import (
	"fmt"
	"sync/atomic"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/ring"
)

// Scheme is the trusted-processor side of SecNDP: it owns the secret key
// through its OTP generator and performs all encryption, decryption, and
// verification. One Scheme serves any number of tables.
type Scheme struct {
	gen *otp.Generator
}

// NewScheme builds a Scheme from a 128-bit secret key.
func NewScheme(key []byte) (*Scheme, error) {
	g, err := otp.NewGenerator(key)
	if err != nil {
		return nil, err
	}
	return &Scheme{gen: g}, nil
}

// Generator exposes the scheme's OTP generator for instrumentation (the
// facade attaches engine-selection counters to it). The generator owns
// the expanded key; callers must not use it to bypass the scheme.
func (s *Scheme) Generator() *otp.Generator { return s.gen }

// Table is the processor-side handle to one encrypted matrix resident in
// untrusted memory: geometry, the version its pads were drawn with, and the
// cached checksum seeds. It carries no plaintext.
type Table struct {
	scheme  *Scheme
	geo     Geometry
	version uint64
	r       ring.Ring
	seeds   []field.Elem // checksum seed substrings s_0..s_{cnt-1}
	// ckPows caches the checksum power table for length-M rows, built
	// lazily on first use and shared by every consumer — the single-query
	// verifier, the batch verifier and table encryption all hash against
	// one table instead of recomputing (or eagerly paying for) the M
	// power-update Muls.
	ckPows atomic.Pointer[[]field.Elem]
}

// checksumPows returns the table's shared power table, building it on
// first use. Safe for concurrent callers: every builder computes the same
// deterministic table, first store wins.
func (t *Table) checksumPows() []field.Elem {
	if p := t.ckPows.Load(); p != nil {
		return *p
	}
	pows := checksumPowers(t.seeds, t.geo.Params.M)
	t.ckPows.CompareAndSwap(nil, &pows)
	return *t.ckPows.Load()
}

// EncryptTable runs the initialization step T0 of Figure 4: Algorithm 1
// over every row (arithmetic encryption), and — when the geometry carries a
// tag placement — Algorithms 2 and 3 per row (linear checksum, encrypted
// into a tag). Ciphertext and tags are written into the untrusted memory.
//
// rows holds n×m canonical ring elements of width geo.Params.We.
func (s *Scheme) EncryptTable(mem *memory.Space, geo Geometry, version uint64, rows [][]uint64) (*Table, error) {
	if len(rows) != geo.Layout.NumRows {
		return nil, fmt.Errorf("core: %d rows supplied for a %d-row layout", len(rows), geo.Layout.NumRows)
	}
	return s.EncryptTableFrom(mem, geo, version, func(i int) []uint64 { return rows[i] })
}

// EncryptTableFrom is the streaming form of EncryptTable: rowFn(i) supplies
// row i's plaintext on demand, so multi-gigabyte tables can be encrypted
// without materializing [][]uint64 (the caller may generate, read from
// disk, or decode each row lazily). Rows are requested in order, once each.
func (s *Scheme) EncryptTableFrom(mem *memory.Space, geo Geometry, version uint64, rowFn func(i int) []uint64) (*Table, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if version == 0 || version > otp.MaxVersion {
		return nil, fmt.Errorf("core: version %d out of range [1, %d]", version, otp.MaxVersion)
	}
	t := s.openTable(geo, version)
	m := geo.Params.M
	we := geo.Params.We
	rowBytes := geo.Params.RowBytes()
	// One sequential pad keystream covers the whole table: rows are laid
	// out at a constant stride, so the stream just skips the tag gap (if
	// any) between consecutive rows. The CTR setup cost is paid once and
	// the per-row encrypt is the fused reduce-subtract-pack kernel.
	gap := int(geo.Layout.RowStride()) - rowBytes
	ks := s.gen.Keystream(otp.DomainData, geo.Layout.Base, version)
	ct := make([]byte, rowBytes)
	for i := 0; i < geo.Layout.NumRows; i++ {
		row := rowFn(i)
		if len(row) != m {
			return nil, fmt.Errorf("core: row %d has %d elements, want %d", i, len(row), m)
		}
		if i > 0 {
			ks.Skip(gap)
		}
		addr := geo.Layout.RowAddr(i)
		// Algorithm 1: c_j = p_j ⊖ e_j, pads drawn per 128-bit chunk.
		ks.SubPack(ct, row, we)
		geo.Layout.WriteRow(mem, i, ct)

		if geo.Layout.Placement != memory.TagNone {
			// Algorithm 2: T_i = h_K(P_i); Algorithm 3: C_Ti = T_i - E_Ti mod q.
			ti := t.resultChecksum(row)
			eti := field.FromBytes(padBytes(s.gen.TagPad(addr, version)))
			cti := field.Sub(ti, eti)
			b := cti.Bytes()
			geo.Layout.WriteTag(mem, i, b[:])
		}
	}
	return t, nil
}

// OpenTable reconstructs a Table handle for data already encrypted under
// (geo, version) — e.g. in a new process lifetime. No memory access occurs;
// the handle is derived entirely from the key.
func (s *Scheme) OpenTable(geo Geometry, version uint64) (*Table, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if version == 0 || version > otp.MaxVersion {
		return nil, fmt.Errorf("core: version %d out of range [1, %d]", version, otp.MaxVersion)
	}
	return s.openTable(geo, version), nil
}

func (s *Scheme) openTable(geo Geometry, version uint64) *Table {
	t := &Table{
		scheme:  s,
		geo:     geo,
		version: version,
		r:       geo.ringOf(),
	}
	cnt := geo.Params.cntS()
	t.seeds = make([]field.Elem, cnt)
	for k := 0; k < cnt; k++ {
		// Algorithm 2 draws s from domain '01' at paddr(P); Algorithm 8's
		// extra substrings come from consecutive blocks in the same domain.
		blk := s.gen.Block(otp.DomainSeed, geo.Layout.Base+uint64(k*otp.BlockBytes), version)
		t.seeds[k] = field.FromBytes(blk[:])
	}
	return t
}

// resultChecksum is checksumRow specialized to this table: length-M inputs
// (every query result and every plaintext row) hash against the shared
// power table; anything else falls back to the generic form.
func (t *Table) resultChecksum(elems []uint64) field.Elem {
	if len(elems) == t.geo.Params.M {
		return checksumRowPow(t.checksumPows(), elems)
	}
	return checksumRow(t.seeds, elems)
}

// padBytes adapts a [16]byte OTP block to a byte slice.
func padBytes(b [otp.BlockBytes]byte) []byte { return b[:] }

// Geometry returns the table's public geometry.
func (t *Table) Geometry() Geometry { return t.geo }

// Version returns the version number the table was encrypted under.
func (t *Table) Version() uint64 { return t.version }
