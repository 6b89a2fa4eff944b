package secndp

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"secndp/internal/remote/faultproxy"
)

// The fault-injection suite drives the full facade — Engine, CreateTable,
// Query — through a chaos TCP proxy sitting between the trusted side and
// the NDP server, exercising every failure class the fault-tolerance
// layer claims to absorb. The universal invariant: a query either returns
// the correct values (possibly Degraded), or a typed error — never a
// silently wrong result.

// faultHarness is one complete deployment: server, chaos proxy, reliable
// transport through the proxy, engine, and a provisioned table.
type faultHarness struct {
	mem   *Memory
	srv   *Server
	proxy *faultproxy.Proxy
	rc    *ReliableNDP
	eng   *Engine
	tab   *Table
	rows  [][]uint64
}

func fastTransport() TransportConfig {
	return TransportConfig{
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond,
			MaxDelay: 4 * time.Millisecond, Jitter: -1},
		Breaker: BreakerConfig{FailureThreshold: 5, ProbeInterval: 50 * time.Millisecond},
		Pool:    PoolConfig{DialTimeout: 500 * time.Millisecond},
	}
}

func newFaultHarness(t *testing.T, seed int64, tcfg TransportConfig, opts ...Option) *faultHarness {
	t.Helper()
	h := &faultHarness{mem: NewMemory()}
	h.srv = NewServer(h.mem)
	saddr, err := h.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.srv.Close() })
	h.proxy = faultproxy.New(saddr, nil)
	paddr, err := h.proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.proxy.Close() })
	h.rc, err = DialReliableNDP(context.Background(), paddr, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.rc.Close() })
	h.eng, err = New(testKey, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	h.rows = testRows(rng, 32, 32, 1<<20)
	h.tab, err = h.eng.CreateTable(context.Background(), RemoteBackend(h.rc), TableSpec{Rows: 32, Cols: 32}, h.rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.tab.Close() })
	return h
}

// checkQuery runs one query and enforces the invariant: success means
// exactly correct values.
func (h *faultHarness) checkQuery(t *testing.T, idx []int, w []uint64) (Result, error) {
	t.Helper()
	res, err := h.tab.Query(context.Background(), Request{Idx: idx, Weights: w})
	if err != nil {
		return res, err
	}
	want := plainSum(h.rows, idx, w, 32, 0xFFFFFFFF)
	for j := range want {
		if res.Values[j] != want[j] {
			t.Fatalf("col %d: %d != %d (degraded=%v)", j, res.Values[j], want[j], res.Degraded)
		}
	}
	return res, nil
}

func TestFaultReconnectAfterBreak(t *testing.T) {
	h := newFaultHarness(t, 101, fastTransport())
	if _, err := h.checkQuery(t, []int{1, 5}, []uint64{2, 3}); err != nil {
		t.Fatalf("pre-break query: %v", err)
	}
	// A network blip severs every live connection; the pool must redial.
	h.proxy.BreakConns()
	res, err := h.checkQuery(t, []int{2, 9}, []uint64{1, 7})
	if err != nil {
		t.Fatalf("query after connection break: %v", err)
	}
	if res.Degraded {
		t.Error("transport-level recovery reported as degraded")
	}
	if h.rc.Stats().Dials < 2 {
		t.Errorf("dials = %d, want >= 2 after break", h.rc.Stats().Dials)
	}
}

func TestFaultTransientFaultsRecover(t *testing.T) {
	// Each scenario arms one faulty connection (index 0 after SetSchedule)
	// and severs the pool; the first redial hits the fault, the retry lands
	// on a clean connection. The query must succeed with correct values and
	// WITHOUT degrading — this is transport recovery, not fallback.
	scenarios := []struct {
		name      string
		plan      faultproxy.Plan
		wantRetry bool
	}{
		{"drop", faultproxy.Plan{DropOnAccept: true}, true},
		{"truncate", faultproxy.Plan{TruncateAfter: 1}, true},
		{"reset", faultproxy.Plan{ResetAfter: 1}, true},
		// Corrupting response byte 1 hits a status byte: the client must
		// reject the frame and resynchronize on a fresh connection.
		{"corrupt", faultproxy.Plan{CorruptAt: 1, CorruptMask: 0x40}, true},
		{"delay", faultproxy.Plan{Delay: 30 * time.Millisecond}, false},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			h := newFaultHarness(t, 200, fastTransport())
			h.proxy.SetSchedule(faultproxy.Script{sc.plan})
			h.proxy.BreakConns()
			before := h.rc.Stats().Retries
			res, err := h.checkQuery(t, []int{0, 8, 31}, []uint64{1, 2, 3})
			if err != nil {
				t.Fatalf("query did not recover from %s: %v", sc.name, err)
			}
			if res.Degraded {
				t.Errorf("%s recovery degraded instead of retrying", sc.name)
			}
			if !res.Verified {
				t.Errorf("%s recovery skipped verification", sc.name)
			}
			if sc.wantRetry && h.rc.Stats().Retries == before {
				t.Errorf("%s consumed no retries", sc.name)
			}
		})
	}
}

func TestFaultPersistentOutageDegrades(t *testing.T) {
	h := newFaultHarness(t, 102, fastTransport(), WithFallback(3))
	if _, err := h.checkQuery(t, []int{3}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	// The server dies for good: retries exhaust, then the breaker opens.
	// Every query's one shard is filled from the TEE mirror instead of
	// failing, and the MAC check still runs over the filled answer.
	h.srv.Close()
	for q := 0; q < 4; q++ {
		res, err := h.checkQuery(t, []int{q, q + 10}, []uint64{2, 5})
		if err != nil {
			t.Fatalf("outage query %d not degraded: %v", q, err)
		}
		if !res.Degraded {
			t.Fatalf("outage query %d claims NDP service", q)
		}
		if !res.Verified {
			t.Error("mirror-filled result skipped the MAC check")
		}
	}
	if got := h.tab.DegradedCount(); got != 4 {
		t.Errorf("DegradedCount = %d, want 4", got)
	}
}

func TestFaultOutageWithoutFallbackIsTyped(t *testing.T) {
	// Retries exhaust first (threshold 100 keeps the breaker closed).
	tcfg := fastTransport()
	tcfg.Breaker = BreakerConfig{FailureThreshold: 100}
	h := newFaultHarness(t, 103, tcfg)
	h.srv.Close()
	_, err := h.tab.Query(context.Background(), Request{Idx: []int{0}, Weights: []uint64{1}})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("dead server without fallback: got %v, want ErrRetriesExhausted", err)
	}
}

func TestFaultCircuitOpenIsTyped(t *testing.T) {
	tcfg := fastTransport()
	tcfg.Breaker = BreakerConfig{FailureThreshold: 2, ProbeInterval: time.Hour}
	h := newFaultHarness(t, 104, tcfg)
	h.srv.Close()
	// First query burns through its attempts and opens the breaker.
	if _, err := h.tab.Query(context.Background(), Request{Idx: []int{0}, Weights: []uint64{1}}); err == nil {
		t.Fatal("query succeeded against a dead server")
	}
	// Subsequent queries fail fast with the typed sentinel.
	_, err := h.tab.Query(context.Background(), Request{Idx: []int{0}, Weights: []uint64{1}})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit without fallback: got %v, want ErrCircuitOpen", err)
	}
}

func TestFaultVerificationFailuresDegradeAfterThreshold(t *testing.T) {
	h := newFaultHarness(t, 105, fastTransport(), WithFallback(2))
	// The server operator corrupts its own memory: every verified query
	// comes back with a bad MAC.
	h.mem.FlipBit(h.tab.Geometry().Layout.RowAddr(1)+2, 3)
	req := []int{0, 1}
	w := []uint64{1, 1}
	// Below the threshold the failure surfaces — one bad MAC could be a
	// transient the operator should see.
	if _, err := h.checkQuery(t, req, w); !errors.Is(err, ErrVerification) {
		t.Fatalf("first verification failure: got %v, want ErrVerification", err)
	}
	// At the threshold the NDP is presumed compromised: the TEE serves the
	// query from the mirror, correctly.
	res, err := h.checkQuery(t, req, w)
	if err != nil {
		t.Fatalf("threshold verification failure not degraded: %v", err)
	}
	if !res.Degraded {
		t.Fatal("post-threshold result not marked degraded")
	}
}

func TestFaultElementQueryOverRemote(t *testing.T) {
	// The wire protocol has no element-indexed op; a remote table's one
	// shard serves element queries by whole-row fetches, so the NDP
	// answers them with or without a mirror, and once the server is gone
	// the mirror fills them in.
	req := Request{Idx: []int{2, 9}, Cols: []int{3, 30}, Weights: []uint64{5, 1}}
	for _, fallback := range []bool{false, true} {
		var opts []Option
		if fallback {
			opts = append(opts, WithFallback(3))
		}
		h := newFaultHarness(t, 106, fastTransport(), opts...)
		want := (5*h.rows[2][3] + h.rows[9][30]) & 0xFFFFFFFF
		res, err := h.tab.Query(context.Background(), req)
		if err != nil || res.Values[0] != want || res.Degraded {
			t.Fatalf("fallback=%v: element query over a healthy NDP = %+v, %v; want %d, not degraded", fallback, res, err, want)
		}
		h.srv.Close()
		res, err = h.tab.Query(context.Background(), req)
		switch {
		case !fallback && err == nil:
			t.Fatal("element query without mirror succeeded against a dead server")
		case fallback && (err != nil || res.Values[0] != want || !res.Degraded):
			t.Fatalf("element query after outage = %+v, %v; want %d, degraded", res, err, want)
		}
	}
}

// TestElementQueryColumnOutOfRange: an element query naming a column
// outside the row — M, negative, or far past the row — is refused with
// ErrIndexRange before any NDP reads outside the row, on every backend,
// and the table answers a valid element query afterwards. Over a cluster
// this once panicked a scatter goroutine and killed the process.
func TestElementQueryColumnOutOfRange(t *testing.T) {
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	localRows := testRows(rand.New(rand.NewSource(109)), 64, 16, 1<<20)
	local, err := eng.CreateTable(context.Background(), LocalBackend(NewMemory()), TableSpec{Rows: 64, Cols: 16}, localRows)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote := newFaultHarness(t, 110, fastTransport())
	cluster := newClusterHarness(t, 2, 160, nil)
	for _, c := range []struct {
		name string
		tab  *Table
		rows [][]uint64
		idx  []int // spans both shards of the cluster
	}{
		{"local", local, localRows, []int{2, 40}},
		{"remote", remote.tab, remote.rows, []int{2, 20}},
		{"cluster", cluster.tab, cluster.rows, []int{2, 40}},
	} {
		m := len(c.rows[0])
		for _, col := range []int{m, -1, 1 << 20} {
			_, err := c.tab.Query(context.Background(), Request{Idx: c.idx, Cols: []int{3, col}, Weights: []uint64{5, 1}})
			if !errors.Is(err, ErrIndexRange) {
				t.Errorf("%s, column %d: got %v, want ErrIndexRange", c.name, col, err)
			}
		}
		res, err := c.tab.Query(context.Background(), Request{Idx: c.idx, Cols: []int{3, m - 1}, Weights: []uint64{5, 1}})
		if err != nil {
			t.Fatalf("%s: valid element query after the refusals: %v", c.name, err)
		}
		if want := (5*c.rows[c.idx[0]][3] + c.rows[c.idx[1]][m-1]) & 0xFFFFFFFF; res.Values[0] != want {
			t.Fatalf("%s: element value %d != %d", c.name, res.Values[0], want)
		}
	}
}

func TestFaultBatchPartialFailure(t *testing.T) {
	// One tampered row poisons only the requests that touch it: siblings
	// return correct values, the aggregate error names the failed request,
	// and the table stays usable.
	eng, _ := New(testKey)
	mem := NewMemory()
	rng := rand.New(rand.NewSource(108))
	rows := testRows(rng, 16, 32, 1<<20)
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 16, Cols: 32}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	mem.FlipBit(tab.Geometry().Layout.RowAddr(5)+1, 2)
	reqs := []Request{
		{Idx: []int{0, 3}, Weights: []uint64{1, 2}},
		{Idx: []int{5}, Weights: []uint64{1}}, // touches the tampered row
		{Idx: []int{7, 9}, Weights: []uint64{3, 4}},
	}
	out, err := tab.QueryBatch(context.Background(), reqs)
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("batch error = %v, want ErrVerification", err)
	}
	if !strings.Contains(err.Error(), "request 1") {
		t.Errorf("batch error does not name the failed request: %v", err)
	}
	for _, i := range []int{0, 2} {
		want := plainSum(rows, reqs[i].Idx, reqs[i].Weights, 32, 0xFFFFFFFF)
		for j := range want {
			if out[i].Values[j] != want[j] {
				t.Fatalf("sibling request %d col %d wrong", i, j)
			}
		}
		if !out[i].Verified {
			t.Errorf("sibling request %d not verified", i)
		}
	}
	if out[1].Values != nil || out[1].Verified {
		t.Error("failed request carries a non-zero Result")
	}
	// The rejection is per-request: the table still serves clean rows.
	if _, err := tab.Query(context.Background(), Request{Idx: []int{0}, Weights: []uint64{1}}); err != nil {
		t.Errorf("table wedged after partial batch failure: %v", err)
	}
}

func TestFaultChaosSoak(t *testing.T) {
	// Reproducible chaos: every connection draws a random fault class from
	// a fixed seed. With fallback armed, the invariant is strict — every
	// query either returns exactly correct values or a typed error.
	h := newFaultHarness(t, 109, fastTransport(), WithFallback(1))
	h.proxy.SetSchedule(faultproxy.Chaos{
		Seed: 42, PDrop: 0.15, PDelay: 0.15, PCorrupt: 0.15,
		PTruncate: 0.15, PReset: 0.15,
	})
	h.proxy.BreakConns()
	rng := rand.New(rand.NewSource(110))
	var hard, degraded int
	for q := 0; q < 40; q++ {
		n := 1 + rng.Intn(4)
		idx := make([]int, n)
		w := make([]uint64, n)
		for k := range idx {
			idx[k] = rng.Intn(32)
			w[k] = 1 + rng.Uint64()%16
		}
		res, err := h.checkQuery(t, idx, w) // fails the test on wrong values
		if err != nil {
			hard++
			if !errors.Is(err, ErrRetriesExhausted) && !errors.Is(err, ErrCircuitOpen) &&
				!errors.Is(err, ErrVerification) {
				t.Fatalf("soak query %d: untyped error %v", q, err)
			}
			continue
		}
		if res.Degraded {
			degraded++
		}
	}
	t.Logf("soak: %d hard errors, %d degraded, stats %+v, degraded count %d",
		hard, degraded, h.rc.Stats(), h.tab.DegradedCount())
}

func TestFaultChaosBatchSoak(t *testing.T) {
	// The batched pipeline under the same chaos schedule as the single-query
	// soak: every opBatch frame rides one connection draw, so drops, delays,
	// corruption, truncation, and resets all land on batch traffic. The
	// invariant is per sub-request: correct values, or a typed error — a
	// damaged batch may degrade or fail, never lie.
	h := newFaultHarness(t, 111, fastTransport(), WithFallback(1))
	h.proxy.SetSchedule(faultproxy.Chaos{
		Seed: 43, PDrop: 0.15, PDelay: 0.15, PCorrupt: 0.15,
		PTruncate: 0.15, PReset: 0.15,
	})
	h.proxy.BreakConns()
	rng := rand.New(rand.NewSource(112))
	var hard, degraded, coalesced int
	for b := 0; b < 12; b++ {
		reqs := make([]Request, 2+rng.Intn(6))
		for i := range reqs {
			n := 1 + rng.Intn(3)
			idx := make([]int, n)
			w := make([]uint64, n)
			for k := range idx {
				idx[k] = rng.Intn(8) // hot rows: exercise cross-request dedup
				w[k] = 1 + rng.Uint64()%16
			}
			reqs[i] = Request{Idx: idx, Weights: w}
		}
		out, err := h.tab.QueryBatch(context.Background(), reqs)
		if err != nil {
			if !errors.Is(err, ErrRetriesExhausted) && !errors.Is(err, ErrCircuitOpen) &&
				!errors.Is(err, ErrVerification) {
				t.Fatalf("batch %d: untyped error %v", b, err)
			}
		}
		for i := range reqs {
			if out[i].Values == nil {
				hard++
				continue
			}
			want := plainSum(h.rows, reqs[i].Idx, reqs[i].Weights, 32, 0xFFFFFFFF)
			for j := range want {
				if out[i].Values[j] != want[j] {
					t.Fatalf("batch %d request %d col %d: %d != %d (degraded=%v)",
						b, i, j, out[i].Values[j], want[j], out[i].Degraded)
				}
			}
			if out[i].Degraded {
				degraded++
			} else {
				coalesced++
			}
		}
	}
	t.Logf("batch soak: %d hard errors, %d degraded, %d clean, stats %+v",
		hard, degraded, coalesced, h.rc.Stats())
}

// TestReliableECCTableVerifies: a Ver-ECC table over a reliable transport
// provisions every row's side-band tag through ReliableNDP's
// WriteECCContext; its queries verify, and one flipped byte of one row's
// ECC tag in the server's memory fails a query over that row with
// ErrVerification.
func TestReliableECCTableVerifies(t *testing.T) {
	mem := NewMemory()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	rc, err := DialReliableNDP(ctx, addr, fastTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	eng, err := New(testKey)
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(rand.New(rand.NewSource(420)), 16, 32, 1<<20)
	tab, err := eng.CreateTable(ctx, RemoteBackend(rc), TableSpec{Rows: 16, Cols: 32, Tags: TagsECC}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	lay := tab.Geometry().Layout
	for i := range rows {
		if tag := mem.ReadECC(lay.RowAddr(i), 16); bytes.Equal(tag, make([]byte, 16)) {
			t.Fatalf("row %d has no side-band tag on the server", i)
		}
	}
	req := Request{Idx: []int{2, 9, 9}, Weights: []uint64{3, 1, 4}}
	res, err := tab.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := plainSum(rows, req.Idx, req.Weights, 32, 0xFFFFFFFF); !res.Verified || !slices.Equal(res.Values, want) {
		t.Fatalf("verified=%v values %v, want verified %v", res.Verified, res.Values, want)
	}
	tag := mem.ReadECC(lay.RowAddr(9), 16)
	tag[5] ^= 0x10
	mem.TamperECC(lay.RowAddr(9), tag)
	if _, err := tab.Query(ctx, req); !errors.Is(err, ErrVerification) {
		t.Fatalf("query over a row with a flipped ECC tag byte: %v, want ErrVerification", err)
	}
}
