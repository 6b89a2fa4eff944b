// Fault tolerance: the trusted side rides out an unreliable network and
// an unreliable NDP server. A chaos proxy sits between the trusted engine
// and the untrusted NDP, randomly dropping, delaying, corrupting,
// truncating, and resetting connections; the fault-tolerant transport
// (reconnecting pool + retry with backoff + circuit breaker) absorbs the
// transient faults, and when the server dies outright the engine degrades
// gracefully — recomputing queries inside the TEE from its trusted
// ciphertext mirror instead of failing.
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"secndp"
	"secndp/internal/remote/faultproxy"
)

func main() {
	// --- untrusted side: an NDP server behind a hostile network ----------
	serverMem := secndp.NewMemory()
	srv := secndp.NewServer(serverMem)
	serverAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	proxy := faultproxy.New(serverAddr, nil) // clean while provisioning
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	fmt.Println("NDP server:", serverAddr, "— reached via chaos proxy:", proxyAddr)

	// --- trusted side: fault-tolerant transport + TEE fallback -----------
	client, err := secndp.DialReliableNDP(context.Background(), proxyAddr,
		secndp.TransportConfig{
			Retry:   secndp.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond},
			Breaker: secndp.BreakerConfig{FailureThreshold: 8, ProbeInterval: 100 * time.Millisecond},
		})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The shared registry sees both the engine (query anatomy, degraded
	// count) and the transport (attempts, retries, breaker state) — the
	// same numbers Stats() reports, but scrapeable via reg.Handler().
	reg := secndp.NewTelemetry()
	eng, err := secndp.New([]byte("fault-demo-key!!"),
		secndp.WithParallelism(4), secndp.WithFallback(3),
		secndp.WithTelemetry(reg))
	if err != nil {
		log.Fatal(err)
	}
	const n, m = 64, 32
	rng := rand.New(rand.NewSource(7))
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	table, err := eng.CreateTable(context.Background(), secndp.RemoteBackend(client),
		secndp.TableSpec{Name: "fault-demo", Rows: n, Cols: m}, rows)
	if err != nil {
		log.Fatal(err)
	}
	defer table.Close()

	check := func(res secndp.Result, idx []int, w []uint64) {
		var want uint64
		for k, i := range idx {
			want += w[k] * rows[i][0]
		}
		if res.Values[0] != want&0xFFFFFFFF {
			log.Fatalf("WRONG RESULT: %d != %d", res.Values[0], want&0xFFFFFFFF)
		}
	}

	// --- phase 1: chaos — transient faults on every connection ----------
	proxy.SetSchedule(faultproxy.Chaos{
		Seed: 1, PDrop: 0.2, PDelay: 0.2, PCorrupt: 0.1, PTruncate: 0.1, PReset: 0.1,
	})
	proxy.BreakConns()
	ok, degraded := 0, 0
	for q := 0; q < 30; q++ {
		idx := []int{rng.Intn(n), rng.Intn(n)}
		w := []uint64{1 + rng.Uint64()%9, 1 + rng.Uint64()%9}
		res, err := table.Query(context.Background(), secndp.Request{Idx: idx, Weights: w})
		if err != nil {
			fmt.Printf("  query %2d: typed failure: %v\n", q, err)
			continue
		}
		check(res, idx, w)
		ok++
		if res.Degraded {
			degraded++
		}
	}
	st := client.Stats()
	fmt.Printf("chaos phase: %d/30 correct (%d via TEE fallback)\n", ok, degraded)
	fmt.Printf("  transport: %d attempts, %d retries, %d dials, breaker opened %d times (now %s)\n",
		st.Attempts, st.Retries, st.Dials, st.BreakerOpens, st.BreakerState)

	// --- phase 2: the server dies for good -------------------------------
	srv.Close()
	idx, w := []int{3, 41}, []uint64{5, 2}
	res, err := table.Query(context.Background(), secndp.Request{Idx: idx, Weights: w})
	if err != nil {
		log.Fatalf("query after server death failed despite fallback: %v", err)
	}
	check(res, idx, w)
	fmt.Printf("server dead: query served from the TEE ciphertext mirror (degraded=%v, verified=%v)\n",
		res.Degraded, res.Verified)
	// The per-phase timing shows where the latency went: the NDP phase ate
	// the retries and the mirror fill of the table's one shard, which the
	// MAC check then ran over (fallback stays zero: that phase is the
	// whole-query recompute after repeated verification failures).
	fmt.Printf("  timing: total=%v ndp=%v fallback=%v\n",
		res.Timing.Total, res.Timing.NDP, res.Timing.Fallback)
	fmt.Printf("degraded queries on this table: %d\n", table.DegradedCount())

	// The registry aggregated the whole run; a /metrics scrape would show
	// the same series (reg.Serve(":9090") to expose them over HTTP).
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "secndp_queries_total", "secndp_queries_degraded_total",
			"secndp_transport_retries_total", "secndp_breaker_opens_total":
			fmt.Printf("  metric %s = %d\n", c.Name, c.Value)
		}
	}
}
