package core

import (
	"fmt"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
)

// Reencrypt refreshes a table in place under a new version: every row is
// fetched and decrypted with the old pads, then re-encrypted (and re-tagged)
// with pads drawn from newVersion. This is the maintenance operation the
// version discipline requires — when a region's data changes, when the
// enclave rotates versions, or when the Theorem 2 query budget for the
// current key/version pairing is running out (see SecurityBounds).
//
// Returns the new table handle. The old handle must not be used afterwards:
// its pads no longer match memory. newVersion must differ from the current
// version (counter-mode pad reuse at the same address is the one fatal
// mistake the scheme forbids, §III-B).
func (t *Table) Reencrypt(mem *memory.Space, newVersion uint64) (*Table, error) {
	return t.ReencryptTo(t.scheme, mem, newVersion)
}

// ReencryptTo is Reencrypt with a key rotation: the refreshed table is
// encrypted under dst's key. Rotating keys resets the Theorem 2 query
// budget entirely ("we can serve 2^53 queries without changing key" —
// this is the changing-key operation). Under the same scheme the version
// must change; under a different key any valid version is safe.
func (t *Table) ReencryptTo(dst *Scheme, mem *memory.Space, newVersion uint64) (*Table, error) {
	if dst == t.scheme && newVersion == t.version {
		return nil, fmt.Errorf("core: re-encryption under the same key must change the version (still %d)", newVersion)
	}
	// Decrypt every row with the old handle, in memory order, into one
	// slab: one sequential pad keystream over the whole table, skipping the
	// tag gap between rows, with the fused add-unpack kernel per row.
	geo := t.geo
	m := geo.Params.M
	slab := make([]uint64, geo.Layout.NumRows*m)
	rows := make([][]uint64, geo.Layout.NumRows)
	ct := make([]byte, geo.Params.RowBytes())
	gap := int(geo.Layout.RowStride()) - len(ct)
	ks := t.scheme.gen.Keystream(otp.DomainData, geo.Layout.Base, t.version)
	for i := range rows {
		if i > 0 {
			ks.Skip(gap)
		}
		rows[i] = slab[i*m : (i+1)*m : (i+1)*m]
		geo.Layout.ReadRowInto(mem, i, ct)
		ks.AddUnpack(rows[i], ct, geo.Params.We)
	}
	// Verify-capable tables: check each row against its tag before
	// committing to re-encrypt, so corruption cannot be laundered into a
	// freshly authenticated table.
	if geo.Layout.Placement != memory.TagNone {
		if err := t.verifyRows(mem, rows); err != nil {
			return nil, err
		}
	}
	return dst.EncryptTable(mem, geo, newVersion, rows)
}

// verifyRows checks every row against its stored tag: Algorithm 5 for the
// one-row sum with weight 1, h_K(P_i) = C_Ti + E_Ti mod q, with the tag
// pads drawn a batch at a time.
func (t *Table) verifyRows(mem *memory.Space, rows [][]uint64) error {
	const batch = 256
	var addrs [batch]uint64
	var pads [batch * memory.TagBytes]byte
	var tag [memory.TagBytes]byte
	lay := t.geo.Layout
	for c := 0; c < len(rows); c += batch {
		cnt := min(batch, len(rows)-c)
		for k := 0; k < cnt; k++ {
			addrs[k] = lay.RowAddr(c + k)
		}
		t.scheme.gen.TagPads(pads[:cnt*memory.TagBytes], addrs[:cnt], t.version)
		for k := 0; k < cnt; k++ {
			lay.ReadTagInto(mem, c+k, tag[:])
			mac := field.Add(field.FromBytes(tag[:]), field.FromBytes(pads[k*memory.TagBytes:]))
			if !t.resultChecksum(rows[c+k]).Equal(mac) {
				return fmt.Errorf("%w: row %d failed verification during re-encryption", ErrVerification, c+k)
			}
		}
	}
	return nil
}
