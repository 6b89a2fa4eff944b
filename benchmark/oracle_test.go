package main

import (
	"testing"

	"secndp"
)

// epochBag builds a bag over a two-row table and its answer at an epoch.
func epochBag() (table, bag, func(epoch uint64) []uint64) {
	tab := table{cols: 4, flat: []uint32{1, 2, 3, 4, 10, 20, 30, 40}}
	b := bag{idx: []int{0, 1, 1}, w: []uint64{2, 3, 1}}
	b.fillOracle(tab)
	at := func(epoch uint64) []uint64 {
		rows := tab.rowsAtEpoch(nil, epoch)
		got := make([]uint64, tab.cols)
		for k, i := range b.idx {
			for j, v := range rows[i] {
				got[j] = (got[j] + b.w[k]*v) & (1<<elemBits - 1)
			}
		}
		return got
	}
	return tab, b, at
}

func TestEpochRangeOracle(t *testing.T) {
	_, b, at := epochBag()
	if b.wsum != 6 || b.want[0] != 2*1+4*10 {
		t.Fatalf("oracle: wsum %d want[0] %d", b.wsum, b.want[0])
	}
	// In range: any single epoch between the one completed at send and
	// the one started at completion.
	for e := uint64(3); e <= 5; e++ {
		if got, ok := b.matches(at(e), 3, 5); !ok || got != e {
			t.Errorf("epoch %d in [3,5]: matched=%v as %d", e, ok, got)
		}
	}
	// Stale: an answer from before the epoch completed at send.
	if _, ok := b.matches(at(2), 3, 5); ok {
		t.Error("accepted a stale epoch-2 answer for range [3,5]")
	}
	// From the future: an epoch no rotation has started yet.
	if _, ok := b.matches(at(6), 3, 5); ok {
		t.Error("accepted an epoch-6 answer for range [3,5]")
	}
	// Mixed: row 0 from epoch 3, row 1 from epoch 4 — verified rows of two
	// epochs folded into one bag equal no single epoch's sum.
	mixed := at(3)
	for j := range mixed {
		mixed[j] += 4 // the two row-1 references, weights 3+1, one epoch on
	}
	if _, ok := b.matches(mixed, 3, 5); ok {
		t.Error("accepted a bag mixing rows of two epochs")
	}
	if _, ok := b.matches(at(3)[:2], 3, 5); ok {
		t.Error("accepted a short answer")
	}
}

func TestUnitRowsAreOneEpoch(t *testing.T) {
	tab, b, _ := epochBag()
	req := withVariants([]request{newRequest([]bag{b})})[0]
	if len(req.unit[0]) != 2 {
		t.Fatalf("unit shape has %d requests, want the 2 distinct rows", len(req.unit[0]))
	}
	answer := func(e0, e1 uint64) (res []secndp.Result) {
		for k, e := range []uint64{e0, e1} {
			res = append(res, secndp.Result{Values: tab.rowsAtEpoch(nil, e)[req.unit[0][k].Idx[0]], Verified: true})
		}
		return res
	}
	if err := checkUnitRows(tab, req.unit[0], answer(4, 4), 3, 5, true); err != nil {
		t.Errorf("rows of epoch 4 in [3,5]: %v", err)
	}
	if err := checkUnitRows(tab, req.unit[0], answer(3, 4), 3, 5, true); err == nil {
		t.Error("accepted rows of two different epochs in one fetch")
	}
	if err := checkUnitRows(tab, req.unit[0], answer(4, 4), 3, 5, false); err == nil {
		t.Error("accepted verified rows where unverified ones were asked for")
	}
}
