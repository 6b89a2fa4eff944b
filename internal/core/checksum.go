package core

import "secndp/internal/field"

// checksumRow evaluates the linear modular hash of a row.
//
// With one seed this is Algorithm 2:
//
//	T = Σ_{j=0}^{m-1} P_j · s^(m-j)  mod q
//
// computed by Horner's rule in O(m) multiplications.
//
// With cnt_s > 1 seeds it is Algorithm 8 ("Linear Checksum with More
// Randomness"):
//
//	T = Σ_{j=0}^{m-1} P_j · s_{(m-j) mod cnt_s}^{⌊(m-j)/cnt_s⌋}  mod q
//
// which lowers the forgery bound from m/q to m/(cnt_s·q) because each seed
// substring appears in a polynomial of degree only m/cnt_s.
//
// Both forms are linear in the row elements, which is the property the
// whole verification scheme rests on (§IV-F).
func checksumRow(seeds []field.Elem, elems []uint64) field.Elem {
	return checksumRowWith(seeds, elems, nil)
}

// checksumRowWith is checksumRow with caller-provided power scratch for
// the multi-seed path. cnt_s ≤ 4 (every configuration the repo ships) uses
// a stack array and never touches scratch; larger seed counts reuse
// scratch when it has capacity, so per-row callers (table encryption, the
// batch verifier's bisection leaves) allocate the power table once instead
// of once per row. scratch contents are clobbered; nil always works.
func checksumRowWith(seeds []field.Elem, elems []uint64, scratch []field.Elem) field.Elem {
	switch len(seeds) {
	case 0:
		panic("core: checksumRow needs at least one seed")
	case 1:
		return field.Horner(seeds[0], elems)
	}
	cnt := len(seeds)
	m := len(elems)
	// pows[r] tracks s_r^e for the next term with (m-j) ≡ r (mod cnt).
	// The first k = m-j with residue r is r itself (exponent 0) for r ≥ 1,
	// and cnt (exponent 1) for r = 0.
	var stack [4]field.Elem
	var pows []field.Elem
	switch {
	case cnt <= len(stack):
		pows = stack[:cnt]
	case cap(scratch) >= cnt:
		pows = scratch[:cnt]
	default:
		pows = make([]field.Elem, cnt)
	}
	for r := range pows {
		if r == 0 {
			pows[r] = seeds[0]
		} else {
			pows[r] = field.One
		}
	}
	acc := field.Zero
	for k := 1; k <= m; k++ {
		r := k % cnt
		term := field.MulUint64(pows[r], elems[m-k])
		acc = field.Add(acc, term)
		pows[r] = field.Mul(pows[r], seeds[r])
	}
	return acc
}

// checksumPowers materializes the coefficient table of the length-m
// checksum polynomial, aligned with element order: powers[j] is the field
// element that multiplies elems[j], i.e. s^(m-j) for the single-seed
// Algorithm 2 form and s_{(m-j) mod cnt}^{⌊(m-j)/cnt⌋} for Algorithm 8.
// The table depends only on the seeds (fixed per table) and m, so hashing
// a length-m row against a cached table is one deferred-reduction dot
// product — zero full 128×128 multiplications; the power-update Muls are
// hoisted out of every verification.
func checksumPowers(seeds []field.Elem, m int) []field.Elem {
	cnt := len(seeds)
	pows := make([]field.Elem, cnt)
	for r := range pows {
		if r == 0 {
			pows[r] = seeds[0]
		} else {
			pows[r] = field.One
		}
	}
	table := make([]field.Elem, m)
	for k := 1; k <= m; k++ {
		r := k % cnt
		table[m-k] = pows[r]
		pows[r] = field.Mul(pows[r], seeds[r])
	}
	return table
}

// checksumRowPow evaluates the checksum against a precomputed power table.
// len(elems) must equal len(powers).
func checksumRowPow(powers []field.Elem, elems []uint64) field.Elem {
	return field.DotUint64(powers, elems)
}

// checksumRowField evaluates the same polynomial over field-element
// coefficients. The checksum is F_q-linear in its coefficients (§IV-F), so
// for any scalars r_i and rows P_i:
//
//	Σ_i r_i · h(P_i)  =  checksumRowField(seeds, Σ_i r_i·lift(P_i))
//
// with the inner sum taken per column in F_q.
func checksumRowField(seeds []field.Elem, elems []field.Elem) field.Elem {
	switch len(seeds) {
	case 0:
		panic("core: checksumRowField needs at least one seed")
	case 1:
		return field.HornerElems(seeds[0], elems)
	}
	cnt := len(seeds)
	m := len(elems)
	var stack [4]field.Elem
	var pows []field.Elem
	if cnt <= len(stack) {
		pows = stack[:cnt]
	} else {
		pows = make([]field.Elem, cnt)
	}
	for r := range pows {
		if r == 0 {
			pows[r] = seeds[0]
		} else {
			pows[r] = field.One
		}
	}
	acc := field.Zero
	for k := 1; k <= m; k++ {
		r := k % cnt
		term := field.Mul(pows[r], elems[m-k])
		acc = field.Add(acc, term)
		pows[r] = field.Mul(pows[r], seeds[r])
	}
	return acc
}

// checksumRowNaive evaluates the same polynomial with an independent power
// computation per term. O(m log m); kept as the cross-check oracle for
// tests and the A4 ablation baseline.
func checksumRowNaive(seeds []field.Elem, elems []uint64) field.Elem {
	cnt := len(seeds)
	m := len(elems)
	acc := field.Zero
	for j := 0; j < m; j++ {
		k := uint64(m - j)
		var p field.Elem
		if cnt == 1 {
			p = field.Pow(seeds[0], k)
		} else {
			r := k % uint64(cnt)
			p = field.Pow(seeds[r], k/uint64(cnt))
		}
		acc = field.Add(acc, field.MulUint64(p, elems[j]))
	}
	return acc
}
