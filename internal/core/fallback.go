package core

import (
	"context"
	"errors"

	"secndp/internal/memory"
)

// This file is the graceful-degradation compute path: when the NDP
// transport is down (circuit open, retries exhausted) or keeps failing
// verification, the trusted side recomputes the query itself from a
// TEE-held ciphertext mirror — the paper's trusted-processor baseline
// (Figure 4(b)), trading the NDP's bandwidth advantage for availability.

// ErrNoMirror is returned by the local fallback paths when no trusted
// ciphertext mirror is available.
var ErrNoMirror = errors.New("core: no trusted ciphertext mirror for local fallback")

// LocalWeightedSum computes res[j] = Σ_k weights[k]·P[idx[k]][j] entirely
// inside the trusted side: each row's ciphertext is read from mirror,
// decrypted with regenerated OTP pads, and accumulated in plaintext. No
// verification applies — the mirror never left the TEE, so its contents
// are trusted by construction; the result is at least as trustworthy as a
// verified NDP result.
func (t *Table) LocalWeightedSum(ctx context.Context, mirror *memory.Space, idx []int, weights []uint64) ([]uint64, error) {
	if mirror == nil {
		return nil, ErrNoMirror
	}
	if err := t.checkQuery(idx, weights); err != nil {
		return nil, err
	}
	acc := make([]uint64, t.geo.Params.M)
	for k, i := range idx {
		if k%ctxCheckStride == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t.r.ScaleAccum(acc, weights[k], t.DecryptRow(mirror, i))
	}
	return acc, nil
}

// LocalWeightedSumElem is the element-indexed form of LocalWeightedSum:
// the scalar Σ_k weights[k]·P[idx[k]][jdx[k]], computed by decrypting each
// touched row from the mirror: the fallback of an element query whose NDP
// failed.
func (t *Table) LocalWeightedSumElem(ctx context.Context, mirror *memory.Space, idx, jdx []int, weights []uint64) (uint64, error) {
	if mirror == nil {
		return 0, ErrNoMirror
	}
	if err := t.checkQuery(idx, weights); err != nil {
		return 0, err
	}
	if err := checkCols(t.geo, idx, jdx); err != nil {
		return 0, err
	}
	var acc uint64
	for k, i := range idx {
		if k%ctxCheckStride == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		acc += weights[k] * t.DecryptRow(mirror, i)[jdx[k]]
	}
	return t.r.Reduce(acc), nil
}
