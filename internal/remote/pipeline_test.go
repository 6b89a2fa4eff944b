package remote

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/remote/faultproxy"
)

// A pipelined exchange writes several opBatch frames in one flush on one
// connection and reads their replies back in order; the server flushes
// only once nothing more has arrived, so the replies leave together.
// These tests pin both halves of that contract over real sockets.

// countingConn counts the Write calls on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipelineServer serves one accepted connection at a time on a fresh
// listener, each wrapped in a countingConn handed to conns, from mem.
func pipelineServer(t *testing.T) (mem *memory.Space, addr string, conns <-chan *countingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mem = memory.NewSpace()
	srv := NewServer(mem)
	ch := make(chan *countingConn, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			cc := &countingConn{Conn: conn}
			ch <- cc
			go func() {
				defer conn.Close()
				srv.serve(cc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return mem, ln.Addr().String(), ch
}

// pipelineFixture encrypts a table into the server memory mem and
// returns its geometry and two different batches with their one-frame
// answers over c as the oracle.
func pipelineFixture(t *testing.T, mem *memory.Space, c Transport) (core.Geometry, [2][]core.BatchRequest, [2][]core.NDPBatchResult) {
	t.Helper()
	scheme, err := core.NewScheme(key)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry(memory.TagSep, 16, 8)
	if _, err := scheme.EncryptTable(mem, geo, 1, randRows(rand.New(rand.NewSource(81)), 16, 8, 1<<20)); err != nil {
		t.Fatal(err)
	}
	batches := [2][]core.BatchRequest{
		{{Idx: []int{1, 2}, Weights: []uint64{3, 4}}, {Idx: []int{5}, Weights: []uint64{1}}},
		{{Idx: []int{7, 7, 0}, Weights: []uint64{2, 9, 1}}, {Idx: []int{15}, Weights: []uint64{6}}, {Idx: []int{3}, Weights: []uint64{1}}},
	}
	var oracle [2][]core.NDPBatchResult
	for i, reqs := range batches {
		if oracle[i], err = c.WeightedTagSumBatch(context.Background(), geo, reqs, true); err != nil {
			t.Fatal(err)
		}
	}
	return geo, batches, oracle
}

// sameResults reports whether res matches want sub-result by sub-result.
func sameResults(res, want []core.NDPBatchResult) bool {
	if len(res) != len(want) {
		return false
	}
	for i := range res {
		if res[i].Err != nil || !slices.Equal(res[i].Sums, want[i].Sums) || !res[i].Tag.Equal(want[i].Tag) {
			return false
		}
	}
	return true
}

// TestPipelinedRepliesOneWrite: two frames written in one flush get two
// replies, in frame order, which the server sends in one write.
func TestPipelinedRepliesOneWrite(t *testing.T) {
	mem, addr, conns := pipelineServer(t)
	c := dial(t, addr)
	sc := <-conns
	geo, batches, oracle := pipelineFixture(t, mem, c)
	ctx := context.Background()
	frames := []BatchFrame{
		{Ctx: ctx, Geo: geo, Reqs: batches[0], Verify: true},
		{Ctx: ctx, Geo: geo, Reqs: batches[1], Verify: true},
	}
	before := sc.writes.Load()
	call, err := c.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	if err := call.Finish(func(i int, res []core.NDPBatchResult, ferr error) {
		order = append(order, i)
		if ferr != nil || !sameResults(res, oracle[i]) {
			t.Errorf("frame %d: %v, results differ from its one-frame answer: %v", i, ferr, !sameResults(res, oracle[i]))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("replies handed over in order %v, want [0 1]", order)
	}
	if n := sc.writes.Load() - before; n != 1 {
		t.Fatalf("the server answered two pipelined frames in %d writes, want 1", n)
	}
}

// TestPipelinedStatusErrKeepsSync: a frame the server rejects whole
// (statusErr: verification asked of a tagless geometry) is handed over
// with its error, the frame after it is answered, and the connection
// stays usable for the next exchange.
func TestPipelinedStatusErrKeepsSync(t *testing.T) {
	_, mem, addr := startServer(t)
	c := dial(t, addr)
	geo, batches, oracle := pipelineFixture(t, mem, c)
	ctx := context.Background()
	bad := geo
	bad.Layout.Placement = memory.TagNone
	frames := []BatchFrame{
		{Ctx: ctx, Geo: bad, Reqs: batches[0], Verify: true},
		{Ctx: ctx, Geo: geo, Reqs: batches[1], Verify: true},
	}
	call, err := c.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	var errs [2]error
	answered := false
	if err := call.Finish(func(i int, res []core.NDPBatchResult, ferr error) {
		errs[i] = ferr
		if i == 1 {
			answered = sameResults(res, oracle[1])
		}
	}); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	var se *serverError
	if !errors.As(errs[0], &se) {
		t.Fatalf("frame 0: %v, want the server's rejection", errs[0])
	}
	if errs[1] != nil || !answered {
		t.Fatalf("frame 1 after a rejected frame: %v, answered correctly %v", errs[1], answered)
	}
	if !c.Usable() {
		t.Fatal("a rejected frame poisoned the connection")
	}
	res, err := c.WeightedTagSumBatch(ctx, geo, batches[0], true)
	if err != nil || !sameResults(res, oracle[0]) {
		t.Fatalf("next exchange on the connection: %v", err)
	}
}

// TestPipelinedThroughFaultProxy: a pooled exchange of three frames
// completes through a proxy that forwards both streams a byte at a time
// with a pause before every byte, so no frame and no reply arrives whole.
func TestPipelinedThroughFaultProxy(t *testing.T) {
	_, mem, addr := startServer(t)
	proxy := faultproxy.New(addr, faultproxy.Script{{Segment: 1, SegmentDelay: 20 * time.Microsecond}})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	rc := dialReliable(t, paddr, ReliableConfig{Retry: fastRetry()})
	geo, batches, oracle := pipelineFixture(t, mem, rc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	frames := []BatchFrame{
		{Ctx: ctx, Geo: geo, Reqs: batches[0], Verify: true},
		{Ctx: ctx, Geo: geo, Reqs: batches[1], Verify: true},
		{Ctx: ctx, Geo: geo, Reqs: batches[0], Verify: true},
	}
	call, err := rc.StartBatches(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := call.Finish(func(i int, res []core.NDPBatchResult, ferr error) {
		if ferr != nil || !sameResults(res, oracle[i%2]) {
			t.Errorf("frame %d through the segmenting proxy: %v", i, ferr)
		}
		got++
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(frames) {
		t.Fatalf("%d of %d frames answered", got, len(frames))
	}
	if n := proxy.Conns(); n != 1 {
		t.Fatalf("%d connections through the proxy, want the one segmenting every byte", n)
	}
}
