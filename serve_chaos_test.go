package secndp_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"secndp"
	"secndp/internal/remote/faultproxy"
	"secndp/internal/serve"
)

// External test package on purpose: internal/serve imports secndp, so
// the chaos-through-serving test cannot live in package secndp itself.

type dropAll struct{}

func (dropAll) PlanFor(int) faultproxy.Plan { return faultproxy.Plan{DropOnAccept: true} }

// TestServeChaosReplicaKill drives the full stack — serving layer,
// coalescer, facade batched pipeline, replicated cluster backend over
// loopback TCP — while the shard's preferred replica is killed mid-load.
// Every lookup must stay correct, Verified, and NOT Degraded: the
// sibling replica absorbs the kill beneath the serving layer, and with
// WithFallback(1) armed any leak to the TEE mirror would surface as
// Degraded immediately.
func TestServeChaosReplicaKill(t *testing.T) {
	const rows, cols = 64, 16
	// One shard, two replicas; the preferred replica sits behind a chaos
	// proxy.
	specs := make([]secndp.ShardSpec, 2)
	var proxy *faultproxy.Proxy
	for i := range specs {
		mem := secndp.NewMemory()
		srv := secndp.NewServer(mem)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if i == 0 {
			proxy = faultproxy.New(addr, nil)
			paddr, err := proxy.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { proxy.Close() })
			addr = paddr
		}
		specs[i] = secndp.ShardSpec{Addr: addr}
	}
	eng, err := secndp.New([]byte("0123456789abcdef"),
		secndp.WithTransport(secndp.TransportConfig{
			Retry: secndp.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond,
				MaxDelay: 4 * time.Millisecond, Jitter: -1},
			Breaker: secndp.BreakerConfig{FailureThreshold: 5, ProbeInterval: 50 * time.Millisecond},
			Pool:    secndp.PoolConfig{DialTimeout: 500 * time.Millisecond},
		}),
		secndp.WithFallback(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(900))
	plain := make([][]uint64, rows)
	for i := range plain {
		plain[i] = make([]uint64, cols)
		for j := range plain[i] {
			plain[i][j] = rng.Uint64() % (1 << 20)
		}
	}
	tab, err := eng.CreateTable(context.Background(),
		secndp.ClusterBackend(specs...).Replicas(2),
		secndp.TableSpec{Rows: rows, Cols: cols}, plain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tab.Close)

	svc := serve.New(serve.Config{
		CacheRows: -1, // every lookup reaches the cluster: maximum chaos exposure
	})
	t.Cleanup(svc.Close)
	if err := svc.AddTable("emb", tab); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res serve.BagResult
		idx []int
		err error
	}
	outc := make(chan outcome)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(910 + g)))
			for {
				n := 1 + rng.Intn(4)
				idx := make([]int, n)
				for k := range idx {
					idx[k] = rng.Intn(rows)
				}
				res, err := svc.Lookup(context.Background(), serve.Bag{Table: "emb", Idx: idx})
				select {
				case outc <- outcome{res, idx, err}:
				case <-stop:
					return
				}
			}
		}(g)
	}
	// The load is paced by its own completions, not by a clock: 50
	// lookups against the healthy pair, the kill, 200 more across it.
	var outcomes []outcome
	collect := func(n int) {
		for i := 0; i < n; i++ {
			outcomes = append(outcomes, <-outc)
		}
	}
	collect(50)
	proxy.SetSchedule(dropAll{})
	proxy.BreakConns()
	collect(200)
	close(stop)
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			if errors.Is(o.err, serve.ErrOverloaded) {
				t.Fatalf("lookup %d shed under nominal load", i)
			}
			t.Fatalf("lookup %d failed despite a live sibling replica: %v", i, o.err)
		}
		for j := 0; j < cols; j++ {
			var want uint64
			for _, r := range o.idx {
				want += plain[r][j]
			}
			want &= 0xFFFFFFFF
			if o.res.Values[j] != want {
				t.Fatalf("lookup %d col %d: %d != %d", i, j, o.res.Values[j], want)
			}
		}
		if !o.res.Verified {
			t.Fatalf("lookup %d lost verification during replica kill", i)
		}
		if o.res.Degraded {
			t.Fatalf("lookup %d Degraded: replica loss must not reach the mirror", i)
		}
	}
}
