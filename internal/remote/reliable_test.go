package remote

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// fastRetry keeps test retries in the microsecond range.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Jitter: -1}
}

func dialReliable(t *testing.T, addr string, cfg ReliableConfig) *ReliableClient {
	t.Helper()
	rc, err := DialReliable(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

func TestReliableQueryEndToEnd(t *testing.T) {
	_, mem, addr := startServer(t)
	rc := dialReliable(t, addr, ReliableConfig{Retry: fastRetry()})
	scheme, _ := core.NewScheme(key)
	geo := testGeometry(memory.TagSep, 16, 32)
	rng := rand.New(rand.NewSource(21))
	rows := randRows(rng, 16, 32, 1<<20)
	tab, err := scheme.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.QueryCtx(context.Background(), rc, []int{1, 3}, []uint64{2, 5},
		core.QueryOptions{Verify: true})
	if err != nil {
		t.Fatalf("reliable query failed: %v", err)
	}
	want := 2*rows[1][0] + 5*rows[3][0]
	if got[0] != want&0xFFFFFFFF {
		t.Fatal("reliable query result wrong")
	}
	// One dial serves the whole session: provision + query reuse the
	// pooled connection.
	if d := rc.Stats().Dials; d != 1 {
		t.Errorf("dials = %d, want 1 (pool should reuse)", d)
	}
}

func TestReliableRedialsAfterServerRestart(t *testing.T) {
	mem := memory.NewSpace()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialReliable(t, addr, ReliableConfig{Retry: fastRetry()})
	if err := rc.PingContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address: pooled connections die.
	srv.Close()
	srv2 := NewServer(mem)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer srv2.Close()
	// The next call fails on the stale pooled connection, then redials.
	if err := rc.PingContext(context.Background()); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
	st := rc.Stats()
	if st.Dials < 2 {
		t.Errorf("dials = %d, want >= 2 (redial after restart)", st.Dials)
	}
	if st.Retries == 0 {
		t.Error("no retry recorded across the restart")
	}
}

func TestReliableRetriesExhaustedTyped(t *testing.T) {
	mem := memory.NewSpace()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialReliable(t, addr, ReliableConfig{
		Retry:   fastRetry(),
		Breaker: BreakerConfig{FailureThreshold: 100}, // keep the breaker out of this test
		Pool:    PoolConfig{DialTimeout: 200 * time.Millisecond},
	})
	srv.Close() // server gone for good
	err = rc.PingContext(context.Background())
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("dead server: got %v, want ErrRetriesExhausted", err)
	}
}

func TestReliableBreakerOpensAndRecovers(t *testing.T) {
	mem := memory.NewSpace()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialReliable(t, addr, ReliableConfig{
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Jitter: -1},
		Breaker: BreakerConfig{FailureThreshold: 2, ProbeInterval: 50 * time.Millisecond},
		Pool:    PoolConfig{DialTimeout: 200 * time.Millisecond},
	})
	srv.Close()
	// First op: both attempts fail → 2 consecutive failures → circuit opens.
	if err := rc.PingContext(context.Background()); err == nil {
		t.Fatal("ping succeeded against a dead server")
	}
	if st := rc.Stats(); st.BreakerState != "open" {
		t.Fatalf("breaker state = %s, want open", st.BreakerState)
	}
	// While open, calls fail fast with the typed sentinel.
	if err := rc.PingContext(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit: got %v, want ErrCircuitOpen", err)
	}
	// Server comes back; after the probe interval, a probe closes the circuit.
	srv2 := NewServer(mem)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := rc.PingContext(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never recovered after server came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := rc.Stats(); st.BreakerState != "closed" {
		t.Errorf("breaker state after recovery = %s, want closed", st.BreakerState)
	}
}

func TestReliableServerRejectionNotRetried(t *testing.T) {
	_, _, addr := startServer(t)
	rc := dialReliable(t, addr, ReliableConfig{Retry: fastRetry()})
	geo := testGeometry(memory.TagNone, 4, 32)
	before := rc.Stats().Attempts
	// A tag sum on a tag-less geometry: a semantic statusErr rejection.
	if _, _, err := sumOne(context.Background(), rc, geo, []int{0}, []uint64{1}, true); err == nil {
		t.Fatal("tag-less tag sum accepted")
	}
	if got := rc.Stats().Attempts - before; got != 1 {
		t.Errorf("semantic rejection consumed %d attempts, want 1", got)
	}
	// The connection survives a semantic rejection: no redial needed.
	if err := rc.PingContext(context.Background()); err != nil {
		t.Fatalf("connection unusable after semantic rejection: %v", err)
	}
}

func TestReliableCallerDeadlineRespected(t *testing.T) {
	addr := hungListener(t)
	rc := NewReliable(addr, ReliableConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Jitter: -1},
	})
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := rc.PingContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung server: got %v, want DeadlineExceeded", err)
	}
	// Per-attempt deadlines are carved from the caller's budget, so the
	// whole retry loop ends close to the caller's deadline, not attempts×budget.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop overran the caller deadline: %v", elapsed)
	}
}

func TestPoolDiscardsPoisonedConnections(t *testing.T) {
	_, _, addr := startServer(t)
	p := NewPool(addr, PoolConfig{})
	defer p.Close()
	c, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Poison it: a call over a severed socket is a transport failure.
	c.Close()
	c.PingContext(context.Background())
	if c.Usable() {
		t.Fatal("transport failure did not poison the connection")
	}
	p.Put(c)
	c2, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Put(c2)
	if c2 == c {
		t.Fatal("pool handed back a poisoned connection")
	}
	if err := c2.PingContext(context.Background()); err != nil {
		t.Fatalf("fresh pooled connection unhealthy: %v", err)
	}
}

func TestPoolClosed(t *testing.T) {
	_, _, addr := startServer(t)
	p := NewPool(addr, PoolConfig{})
	p.Close()
	if _, err := p.Get(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("closed pool Get: got %v, want ErrPoolClosed", err)
	}
}

// TestAttemptContextUnboundedIsCallers: with no per-attempt timeout and no
// caller deadline, an attempt runs under the caller's own context — no
// derived context, no registration with the parent — and its cancel is a
// no-op; a per-attempt timeout or a caller deadline still derives one.
func TestAttemptContextUnboundedIsCallers(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, 1)
	p := RetryPolicy{}.withDefaults()
	actx, cancel := p.attemptContext(ctx, 1)
	if actx != ctx {
		t.Fatal("unbounded attempt derived a new context")
	}
	cancel()
	if actx.Err() != nil {
		t.Fatal("the no-op cancel cancelled the caller's context")
	}

	dl, stop := context.WithTimeout(ctx, time.Minute)
	defer stop()
	for _, c := range []struct {
		name string
		p    RetryPolicy
		ctx  context.Context
	}{
		{"per-attempt timeout", RetryPolicy{PerAttemptTimeout: time.Second}.withDefaults(), ctx},
		{"caller deadline", p, dl},
	} {
		actx, cancel := c.p.attemptContext(c.ctx, 1)
		if actx == c.ctx {
			t.Errorf("%s: attempt did not derive a bounded context", c.name)
		}
		if _, ok := actx.Deadline(); !ok {
			t.Errorf("%s: attempt context has no deadline", c.name)
		}
		cancel()
		if actx.Err() == nil {
			t.Errorf("%s: cancel did not end the attempt context", c.name)
		}
	}
}
