package main

import (
	"math"
	"testing"
)

// TestSelfTimeSubtraction builds one request's ladder by hand:
//
//	serve 1000us
//	  secndp A 600us (overlapped)      secndp B 400us (overlapped)
//	    core 500us                       core 390us
//	      ndp 200us (overlapped)
//	        ring 120us, field 30us (serial)
//
// The chain follows A, the slower of the overlapped pair; B's subtree owns
// nothing on it.
func TestSelfTimeSubtraction(t *testing.T) {
	mk := func(id, parent uint64, name, layer string, dur int64, ov bool) span {
		return span{ID: id, Parent: parent, Req: 1, Name: name, Layer: layer, Start: 0, End: dur * 1000, Overlapped: ov}
	}
	spans := []span{
		mk(1, 0, "serve.LookupBags", "serve", 1000, false),
		mk(2, 1, "secndp.QueryBatch", "secndp", 600, true),
		mk(3, 1, "secndp.QueryBatch", "secndp", 400, true),
		mk(4, 2, "core.QueryBatchCtx", "core", 500, false),
		mk(5, 3, "core.QueryBatchCtx", "core", 390, false),
		mk(6, 4, "ndp.WeightedTagSumBatch", "ndp", 200, true),
		mk(7, 6, "ring.ScaleAccumBytes", "ring", 120, false),
		mk(8, 6, "field.DotUint64", "field", 30, false),
		// A second tree that is not the op's: must be ignored.
		mk(9, 0, "secndp.Query", "secndp", 77, false),
	}
	if got := selfTime(spans[0], spans[1:3]); got != 400 {
		t.Errorf("serve self = %v, want 1000 - max(600, 400) = 400", got)
	}
	if got := selfTime(spans[5], spans[6:8]); got != 50 {
		t.Errorf("ndp self = %v, want 200 - 120 - 30 = 50", got)
	}
	selfs := layerSelfMedians(spans, "serve.LookupBags")
	want := map[string]float64{"serve": 400, "secndp": 100, "core": 300, "ndp": 50, "ring": 120, "field": 30}
	sum := 0.0
	for layer, w := range want {
		if selfs[layer] != w {
			t.Errorf("%s self = %v, want %v", layer, selfs[layer], w)
		}
		sum += selfs[layer]
	}
	if len(selfs) != len(want) {
		t.Errorf("layers %v, want exactly %v", selfs, want)
	}
	if root := spans[0].dur(); math.Abs(sum-root) > 1e-9 {
		t.Errorf("self times sum to %v, root is %v: the chain must account for the whole op", sum, root)
	}
}

func TestLayerSelfMediansAcrossRequests(t *testing.T) {
	// Three requests; only one crosses "cluster". A layer a request's
	// chain does not cross counts as 0 for it, so the median is 0.
	var spans []span
	id := uint64(0)
	add := func(parent, req uint64, layer string, dur int64) uint64 {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Req: req, Name: layer, Layer: layer, End: dur * 1000})
		return id
	}
	for req, core := range []int64{100, 200, 300} {
		root := add(0, uint64(req+1), "secndp", core+10)
		c := add(root, uint64(req+1), "core", core)
		if req == 2 {
			add(c, 3, "cluster", 50)
		}
	}
	selfs := layerSelfMedians(spans, "secndp")
	if selfs["secndp"] != 10 || selfs["core"] != 200 || selfs["cluster"] != 0 {
		t.Errorf("got %v, want secndp 10, core 200, cluster 0", selfs)
	}
}
