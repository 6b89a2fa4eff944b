package faultproxy

import (
	"context"
	"sync"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// Gate is an honest in-process NDP transport whose batched fetches can
// be held at a gate: a hung NDP without a socket and without a clock.
// Tests that must pin a fetch "on the wire" — to queue work behind it,
// cancel a waiter, or fill an admission envelope — Shut the gate, wait
// for the fetch with AwaitParked, and Open it when the scene is set.
// Provisioning writes and the single-query ops always pass.
//
// It satisfies remote.Transport, so a table is built on it with
// secndp.RemoteBackend(gate). A parked fetch returns ctx.Err() when its
// context ends first.
type Gate struct {
	*core.HonestNDP

	mu     sync.Mutex
	cond   *sync.Cond
	shut   chan struct{} // nil while open; closed by Open
	parked int
}

// NewGate builds an open gate over mem.
func NewGate(mem *memory.Space) *Gate {
	g := &Gate{HonestNDP: &core.HonestNDP{Mem: mem}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Shut makes every later batched fetch park until Open.
func (g *Gate) Shut() {
	g.mu.Lock()
	if g.shut == nil {
		g.shut = make(chan struct{})
	}
	g.mu.Unlock()
}

// Open releases every parked fetch and lets later ones through.
func (g *Gate) Open() {
	g.mu.Lock()
	if g.shut != nil {
		close(g.shut)
		g.shut = nil
	}
	g.mu.Unlock()
}

// AwaitParked blocks until at least n fetches are parked at the gate.
func (g *Gate) AwaitParked(n int) {
	g.mu.Lock()
	for g.parked < n {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// WeightedTagSumBatch implements core.NDP, parking while the gate
// is shut.
func (g *Gate) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	g.mu.Lock()
	shut := g.shut
	if shut != nil {
		g.parked++
		g.cond.Broadcast()
	}
	g.mu.Unlock()
	if shut != nil {
		var err error
		select {
		case <-shut:
		case <-ctx.Done():
			err = ctx.Err()
		}
		g.mu.Lock()
		g.parked--
		g.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return g.HonestNDP.WeightedTagSumBatch(ctx, geo, reqs, verify)
}

// WriteBlobContext stores provisioned ciphertext.
func (g *Gate) WriteBlobContext(_ context.Context, addr uint64, data []byte) error {
	g.Mem.Write(addr, data)
	return nil
}

// WriteECCContext stores a provisioned side-band tag.
func (g *Gate) WriteECCContext(_ context.Context, dataAddr uint64, tag []byte) error {
	g.Mem.WriteECC(dataAddr, tag)
	return nil
}

// Close implements remote.Transport; there is nothing to release.
func (g *Gate) Close() error { return nil }
