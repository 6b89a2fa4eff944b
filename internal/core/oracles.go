package core

import (
	"context"
	"fmt"

	"secndp/internal/field"
	"secndp/internal/memory"
)

// WSOracle implements the weighted-summation sign and verification oracles
// of Algorithms 6 and 7 — the interfaces the MAC adversary of Definition
// A.4 plays against. The index set and weight vector are fixed per oracle,
// as in the appendix ("these sequences are considered constant and our
// proof holds for any such sequences").
//
// Sign encrypts a fresh plaintext matrix and returns what the adversary
// observes: the NDP's ciphertext outputs (C_res_0..C_res_{m-1}, C_Tres).
// Verify accepts adversary-chosen values in place of the NDP outputs and
// runs the processor's check. The security tests use these to play actual
// forgery games against the implementation.
type WSOracle struct {
	scheme  *Scheme
	geo     Geometry
	idx     []int
	weights []uint64
}

// NewWSOracle builds the oracle pair for a fixed geometry/query shape. The
// geometry must carry a tag placement.
func NewWSOracle(s *Scheme, geo Geometry, idx []int, weights []uint64) (*WSOracle, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if geo.Layout.Placement == memory.TagNone {
		return nil, fmt.Errorf("core: oracle requires a tag placement")
	}
	if len(idx) != len(weights) {
		return nil, fmt.Errorf("core: %d indices vs %d weights", len(idx), len(weights))
	}
	return &WSOracle{scheme: s, geo: geo, idx: idx, weights: weights}, nil
}

// MACMessage is a sign-oracle response: the pair (C_res, C_Tres) the
// adversary tries to forge.
type MACMessage struct {
	CRes  []uint64
	CTRes field.Elem
}

// Sign is Algorithm 6: encrypt the plaintext rows into mem under version v
// and return the honest NDP's outputs for the oracle's fixed query.
func (o *WSOracle) Sign(mem *memory.Space, rows [][]uint64, version uint64) (MACMessage, error) {
	t, err := o.scheme.EncryptTable(mem, o.geo, version, rows)
	if err != nil {
		return MACMessage{}, err
	}
	_ = t
	ndp := &HonestNDP{Mem: mem}
	return MACMessage{
		CRes:  ndp.WeightedSum(o.geo, o.idx, o.weights),
		CTRes: ndp.TagSum(o.geo, o.idx, o.weights),
	}, nil
}

// Verify is Algorithm 7: run the processor's verification with the
// adversary-supplied message substituted for the NDP outputs.
func (o *WSOracle) Verify(msg MACMessage, version uint64) (bool, error) {
	if len(msg.CRes) != o.geo.Params.M {
		return false, fmt.Errorf("core: message has %d columns, want %d", len(msg.CRes), o.geo.Params.M)
	}
	t, err := o.scheme.OpenTable(o.geo, version)
	if err != nil {
		return false, err
	}
	eres, err := t.OTPWeightedSumCtx(context.TODO(), o.idx, o.weights, QueryOptions{Workers: 1})
	if err != nil {
		return false, err
	}
	res := t.Decrypt(msg.CRes, eres)
	return t.Verify(o.idx, o.weights, res, msg.CTRes)
}
