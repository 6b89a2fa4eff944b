package core

import (
	"context"
	"fmt"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
)

// This file is the trusted-processor column of Algorithms 4 and 5: OTP-share
// computation (the "OTP PU" of §V-C2), final-adder decryption, and the
// verification engine.

// padRow regenerates the OTP share of row i — the processor's arithmetic
// share of the secret, recomputed from (key, address, version) with zero
// memory traffic. This is what makes SecNDP cheaper than classic MPC: the
// TEE's share never needs to be stored or fetched. The engine's sweep
// never materializes this vector; padRow is the one-row-at-a-time form the
// test oracles compare it against.
func (t *Table) padRow(i int) []uint64 {
	addr := t.geo.Layout.RowAddr(i)
	raw := t.scheme.gen.Pads(otp.DomainData, addr, t.version, t.geo.Params.RowBytes()/otp.BlockBytes)
	return t.r.UnpackElems(raw)
}

// otpWalk is the sweep's one-request arm (otpBatch) and the tag half of
// TagPadSumCtx — the OTP PU mirroring the NDP's operation on the
// processor's shares over a lone request's indices as given, with no
// dedup plan. It accumulates weights[k]·pad(idx[k]) mod 2^we into acc
// (Algorithm 4 lines 8–14; acc == nil skips the data share) and stages
// row k's tag pad E_T[idx[k]] at tagPads[16k:] (Algorithm 5 line 12;
// tagPads == nil skips the tags), in ctxCheckStride-row chunks with a
// cancellation check between them. A verified walk is the fused kernel —
// data pads and tag pads out of one keystream pass — and an unverified one
// the generate-scale-accumulate kernel; neither materializes a pad vector.
func (t *Table) otpWalk(ctx context.Context, idx []int, weights []uint64, acc []uint64, tagPads []byte) error {
	gen, we := t.scheme.gen, t.geo.Params.We
	var addrBuf [ctxCheckStride]uint64
	for k := 0; k < len(idx); k += ctxCheckStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(k+ctxCheckStride, len(idx))
		addrs := addrBuf[:end-k]
		for j := range addrs {
			addrs[j] = t.geo.Layout.RowAddr(idx[k+j])
		}
		var tags []byte
		if tagPads != nil {
			tags = tagPads[k*otp.BlockBytes : end*otp.BlockBytes]
		}
		switch {
		case acc == nil:
			gen.TagPads(tags, addrs, t.version)
		case tags != nil:
			gen.PadTagScaleAccum(acc, we, weights[k:end], addrs, t.version, tags)
		default:
			for j, addr := range addrs {
				gen.PadScaleAccum(acc, weights[k+j], we, otp.DomainData, addr, t.version)
			}
		}
	}
	return nil
}

// tagDot computes E_Tres = Σ_k weights[k]·E_T[k] mod q (Algorithm 5 lines
// 11–14), the processor's share of the result MAC, over the tag pads an
// otpWalk staged: one vectorized field dot per ctxCheckStride pads.
func tagDot(tagPads []byte, weights []uint64) field.Elem {
	var elems [ctxCheckStride]field.Elem
	var acc field.Acc
	for k := 0; k < len(weights); k += len(elems) {
		n := min(len(elems), len(weights)-k)
		for j := 0; j < n; j++ {
			elems[j] = field.FromBytes(tagPads[(k+j)*otp.BlockBytes:])
		}
		acc.ScaleAccum(elems[:n], weights[k:k+n])
	}
	return acc.Sum()
}

// OTPWeightedSumElem is the scalar element-indexed form matching
// NDP.WeightedSumElem.
func (t *Table) OTPWeightedSumElem(idx, jdx []int, weights []uint64) (uint64, error) {
	if len(idx) != len(weights) {
		return 0, fmt.Errorf("core: index/weight length mismatch")
	}
	if err := checkCols(t.geo, idx, jdx); err != nil {
		return 0, err
	}
	eb := uint64(t.r.Bytes())
	var acc uint64
	for k, i := range idx {
		elemAddr := t.geo.Layout.RowAddr(i) + uint64(jdx[k])*eb
		pad := t.scheme.gen.ElemPad(elemAddr, t.version, t.geo.Params.We)
		acc += weights[k] * pad
	}
	return t.r.Reduce(acc), nil
}

// Decrypt adds the two arithmetic shares: res = C_res ⊕ E_res (Algorithm 4
// line 15). In hardware this is the single final adder on the critical
// path (§V-E3).
func (t *Table) Decrypt(cres, eres []uint64) []uint64 {
	res := make([]uint64, len(cres))
	t.r.AddVec(res, cres, eres)
	return res
}

// Checksum computes T_res = h_K(res), the verification engine's half of
// Algorithm 5 (lines 8–10).
func (t *Table) Checksum(res []uint64) field.Elem {
	return t.resultChecksum(res)
}

// Verify runs the MAC check of Algorithm 5 line 16: the checksum of the
// decrypted result must equal the reconstructed MAC C_Tres + E_Tres mod q.
// A mismatch means NDP misbehavior, memory tampering, a replay, or ring
// overflow in some column.
func (t *Table) Verify(idx []int, weights []uint64, res []uint64, cTres field.Elem) (bool, error) {
	if t.geo.Layout.Placement == memory.TagNone {
		return false, ErrNoTags
	}
	eTres, err := t.TagPadSumCtx(context.TODO(), idx, weights, QueryOptions{Workers: 1})
	if err != nil {
		return false, err
	}
	return t.Checksum(res).Equal(field.Add(cTres, eTres)), nil
}

// DecryptRow fetches and decrypts one row directly — the non-NDP TEE path
// (Figure 4(b)) where the processor pulls ciphertext over the bus and XORs
// (here: adds) the pad. Used by baselines and tests.
func (t *Table) DecryptRow(mem *memory.Space, i int) []uint64 {
	ct := t.geo.Layout.ReadRow(mem, i)
	res := make([]uint64, t.geo.Params.M)
	t.scheme.gen.PadAddUnpack(res, ct, t.geo.Params.We, otp.DomainData, t.geo.Layout.RowAddr(i), t.version)
	return res
}

// QueryVerified runs Algorithm 4 followed by Algorithm 5: QueryCtx with
// one worker, verification on, no cancellation.
func (t *Table) QueryVerified(ndp NDP, idx []int, weights []uint64) ([]uint64, error) {
	return t.QueryCtx(context.Background(), ndp, idx, weights, QueryOptions{Workers: 1, Verify: true})
}

func (t *Table) checkQuery(idx []int, weights []uint64) error {
	return checkQuery(t.geo, idx, weights)
}

// checkQuery validates one (idx, weights) query against a geometry. It is
// shared by the batch planner (so by every query), the OTP-half entry
// points, and HonestNDP's batched entry point.
func checkQuery(geo Geometry, idx []int, weights []uint64) error {
	if len(idx) != len(weights) {
		return fmt.Errorf("core: %d indices vs %d weights", len(idx), len(weights))
	}
	n := uint(geo.Layout.NumRows)
	for _, i := range idx {
		if uint(i) >= n {
			return fmt.Errorf("%w: row %d not in [0,%d)", ErrIndexRange, i, n)
		}
	}
	return nil
}

// checkCols validates an element query's column indices: one per row, each
// in [0, M).
func checkCols(geo Geometry, idx, jdx []int) error {
	if len(jdx) != len(idx) {
		return fmt.Errorf("core: %d column indices vs %d rows", len(jdx), len(idx))
	}
	for _, j := range jdx {
		if j < 0 || j >= geo.Params.M {
			return fmt.Errorf("%w: column %d not in [0,%d)", ErrIndexRange, j, geo.Params.M)
		}
	}
	return nil
}

// QueryElemCtx runs the element-indexed weighted summation of the
// appendix's Algorithm 4 — the scalar Σ_k weights[k]·P[idx[k]][jdx[k]] —
// through the NDP. No verification applies: the paper's tags authenticate
// whole-row linear combinations (Algorithm 5 operates per column over
// full rows). Rows and columns are range-checked before the NDP is asked
// anything; a panic out of the NDP is converted into an error.
func (t *Table) QueryElemCtx(ctx context.Context, ndp NDP, idx, jdx []int, weights []uint64) (v uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := t.checkQuery(idx, weights); err != nil {
		return 0, err
	}
	if err := checkCols(t.geo, idx, jdx); err != nil {
		return 0, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: ndp failed: %v", r)
		}
	}()
	cres, err := ndp.WeightedSumElem(ctx, t.geo, idx, jdx, weights)
	if err != nil {
		return 0, err
	}
	eres, err := t.OTPWeightedSumElem(idx, jdx, weights)
	if err != nil {
		return 0, err
	}
	return t.r.Add(cres, eres), nil
}
