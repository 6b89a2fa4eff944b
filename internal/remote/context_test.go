package remote

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// hungListener accepts connections and never answers — the pathological
// untrusted server a context deadline must defend against.
func hungListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return ln.Addr().String()
}

func TestDeadlineOnHungServer(t *testing.T) {
	addr := hungListener(t)
	client, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	geo := testGeometry(memory.TagNone, 4, 32)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = sumOne(ctx, client, geo, []int{0}, []uint64{1}, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung server: got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
	// The connection is poisoned (stream desynced): later calls fail fast
	// instead of writing onto a broken stream.
	if _, _, err := sumOne(context.Background(), client, geo, []int{0}, []uint64{1}, false); err == nil {
		t.Error("poisoned client accepted a follow-up call")
	}
}

func TestCancelDuringCall(t *testing.T) {
	addr := hungListener(t)
	client, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	geo := testGeometry(memory.TagNone, 4, 32)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, _, err := sumOne(ctx, client, geo, []int{0}, []uint64{1}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: got %v, want Canceled", err)
	}
}

func TestSetCallTimeout(t *testing.T) {
	addr := hungListener(t)
	client, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetCallTimeout(50 * time.Millisecond)
	geo := testGeometry(memory.TagNone, 4, 32)
	start := time.Now()
	_, _, err = sumOne(context.Background(), client, geo, []int{0}, []uint64{1}, false)
	if err == nil {
		t.Fatal("hung server call returned without error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call timeout honored only after %v", elapsed)
	}
}

func TestServerRejectsTagSumWithoutTags(t *testing.T) {
	_, _, addr := startServer(t)
	client := dial(t, addr)
	geo := testGeometry(memory.TagNone, 4, 32)
	_, _, err := sumOne(context.Background(), client, geo, []int{0}, []uint64{1}, true)
	if err == nil {
		t.Fatal("tag sum on tag-less geometry accepted")
	}
	// A server-reported rejection keeps the stream usable.
	if _, _, err := sumOne(context.Background(), client, testGeometry(memory.TagSep, 4, 32), []int{0}, []uint64{1}, false); err != nil {
		t.Errorf("connection unusable after server-side rejection: %v", err)
	}
}

func TestServerRejectsInvalidGeometry(t *testing.T) {
	_, _, addr := startServer(t)
	client := dial(t, addr)
	bad := testGeometry(memory.TagSep, 4, 32)
	bad.Layout.RowBytes = 100 // not a multiple of the 16-byte cipher block
	if _, _, err := sumOne(context.Background(), client, bad, []int{0}, []uint64{1}, false); err == nil {
		t.Fatal("invalid geometry accepted by server")
	}
	// Server survives and keeps serving valid requests on the same stream.
	if _, _, err := sumOne(context.Background(), client, testGeometry(memory.TagSep, 4, 32), []int{0}, []uint64{1}, false); err != nil {
		t.Errorf("server unusable after rejecting bad geometry: %v", err)
	}
}

// The remote client satisfies core.NDP, so the concurrent engine
// drives it end to end: honest queries verify, tampered memory is caught.
func TestQueryCtxOverRemote(t *testing.T) {
	_, mem, addr := startServer(t)
	client := dial(t, addr)
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 16, 32)
	rng := rand.New(rand.NewSource(8))
	rows := randRows(rng, 16, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{2, 7, 11}
	w := []uint64{1, 2, 3}
	got, err := tab.QueryCtx(context.Background(), client, idx, w,
		core.QueryOptions{Workers: 4, Verify: true})
	if err != nil {
		t.Fatalf("remote QueryCtx failed: %v", err)
	}
	want := rows[2][0] + 2*rows[7][0] + 3*rows[11][0]
	if got[0] != want&0xFFFFFFFF {
		t.Error("remote QueryCtx result wrong")
	}
	mem.FlipBit(geo.Layout.RowAddr(7)+1, 4)
	if _, err := tab.QueryCtx(context.Background(), client, idx, w,
		core.QueryOptions{Workers: 4, Verify: true}); !errors.Is(err, core.ErrVerification) {
		t.Errorf("remote tamper not rejected through QueryCtx: %v", err)
	}
}
