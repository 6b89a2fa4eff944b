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
	// workers is the number of shards table encryption runs on (see
	// SetWorkers); <= 0 selects GOMAXPROCS.
	workers int
}

// NewScheme builds a Scheme from a 128-bit secret key.
func NewScheme(key []byte) (*Scheme, error) {
	g, err := otp.NewGenerator(key)
	if err != nil {
		return nil, err
	}
	return &Scheme{gen: g}, nil
}

// SetWorkers fixes how many workers EncryptTable (and with it every
// re-encryption) shards a table across — the software counterpart of the
// paper's several OTP engines (§V-C2). n <= 0, the default, selects
// GOMAXPROCS. Call it before the scheme is shared.
func (s *Scheme) SetWorkers(n int) { s.workers = n }

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
// into a tag). Ciphertext and tags are written into the untrusted memory by
// the sharded encoder (encrypt.go), across the scheme's workers.
//
// rows holds n×m canonical ring elements of width geo.Params.We. Every row
// is checked before any byte is written, so a rejected call leaves memory —
// possibly a live table being rotated in place — untouched.
func (s *Scheme) EncryptTable(mem *memory.Space, geo Geometry, version uint64, rows [][]uint64) (*Table, error) {
	if len(rows) != geo.Layout.NumRows {
		return nil, fmt.Errorf("core: %d rows supplied for a %d-row layout", len(rows), geo.Layout.NumRows)
	}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if version == 0 || version > otp.MaxVersion {
		return nil, fmt.Errorf("core: version %d out of range [1, %d]", version, otp.MaxVersion)
	}
	for i, row := range rows {
		if len(row) != geo.Params.M {
			return nil, fmt.Errorf("core: row %d has %d elements, want %d", i, len(row), geo.Params.M)
		}
	}
	t := s.openTable(geo, version)
	t.encryptRows(mem, rows, s.encryptShards(geo), encryptChunkRows(geo))
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

// Geometry returns the table's public geometry.
func (t *Table) Geometry() Geometry { return t.geo }

// Version returns the version number the table was encrypted under.
func (t *Table) Version() uint64 { return t.version }
