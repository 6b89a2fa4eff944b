package faultproxy

import (
	"context"
	"errors"
	"testing"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// TestGateParksBatchedFetches: an open gate passes fetches through; a
// shut one parks them until Open, or until the fetch's context ends.
func TestGateParksBatchedFetches(t *testing.T) {
	g := NewGate(memory.NewSpace())
	fetch := func(ctx context.Context) <-chan error {
		c := make(chan error, 1)
		go func() {
			// No sub-requests: the honest NDP answers an empty batch
			// without touching memory, so no table is needed.
			geo := core.Geometry{Params: core.Params{We: 32, M: 4}}
			_, err := g.WeightedTagSumBatch(ctx, geo, nil, false)
			c <- err
		}()
		return c
	}
	if err := <-fetch(context.Background()); err != nil {
		t.Fatalf("open gate: %v", err)
	}
	g.Shut()
	ctx, cancel := context.WithCancel(context.Background())
	held, abandoned := fetch(context.Background()), fetch(ctx)
	g.AwaitParked(2)
	select {
	case err := <-held:
		t.Fatalf("fetch passed a shut gate: %v", err)
	default:
	}
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked fetch with a canceled context: %v", err)
	}
	g.Open()
	if err := <-held; err != nil {
		t.Fatalf("released fetch: %v", err)
	}
	if err := <-fetch(context.Background()); err != nil {
		t.Fatalf("reopened gate: %v", err)
	}
}
