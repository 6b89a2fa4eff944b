package core

import "sync"

// Pooled scratch for the query hot paths. The verified query path used to
// allocate two fresh buffers per row on the NDP side (the raw ciphertext
// read and its unpacked element vector) plus per-worker staging on the OTP
// side — ~3 allocations per referenced row. Reusing pooled scratch (and
// fixed ctxCheckStride-sized stack buffers in the OTP walk) brings a
// verified query down to a handful of allocations regardless of the
// pooling factor.

var byteScratch = sync.Pool{New: func() any { s := make([]byte, 0, 512); return &s }}

// getByteScratch returns a pooled byte slice of length n and the pool
// token to return via putByteScratch.
func getByteScratch(n int) (*[]byte, []byte) {
	p := byteScratch.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return p, (*p)[:n]
}

func putByteScratch(p *[]byte) { byteScratch.Put(p) }

// slotScratch pools the batch planner's dense row→slot table. Invariant:
// every pooled table is all −1 over its full length; planBatch resets the
// entries it touched before returning a table to the pool.
var slotScratch sync.Pool

// getSlotScratch returns a pooled all−1 int32 table of length n and the
// pool token to return via putSlotScratch (after restoring the invariant).
func getSlotScratch(n int) (*[]int32, []int32) {
	if p, _ := slotScratch.Get().(*[]int32); p != nil && len(*p) >= n {
		return p, (*p)[:n]
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return &s, s
}

func putSlotScratch(p *[]int32) { slotScratch.Put(p) }
