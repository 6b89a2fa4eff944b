// Command secndp-dlrm runs the multi-tenant embedding-serving service:
// synthetic DLRM embedding tables encrypted under the SecNDP scheme,
// fronted by the serving layer (admission control, hot-row result
// cache, cross-user batch coalescing) and exposed over HTTP. Pair it
// with secndp-loadgen for a closed-loop load test.
//
//	secndp-dlrm -addr :8080                          # in-process NDP (local backend)
//	secndp-dlrm -addr :8080 -shards 2                # in-process 2-shard loopback cluster
//	secndp-dlrm -addr :8080 -ndp host:7070,host:7071 # external secndp-server shards
//	secndp-dlrm -addr :8080 -telemetry :9090         # /metrics, /debug/serve, pprof
//
// API:
//
//	POST /v1/lookup {"bags":[{"table":"emb0","idx":[1,2],"weights":[3,4]}]}
//	  -> {"results":[{"values":[...],"verified":true,"degraded":false,"cache_hits":1}]}
//	  503 + Retry-After when admission control sheds (the typed overload path)
//	GET /healthz      -> 200 "ok"
//	GET /v1/tables    -> serving names and geometry
//	GET /v1/stats     -> serving counters (coalescing factor, hit rate, shed, ...)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"secndp"
	"secndp/internal/serve"
	"secndp/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP address for the serving API")
		tables   = flag.Int("tables", 4, "number of embedding tables (emb0..embN-1)")
		rows     = flag.Int("rows", 4096, "rows per table")
		cols     = flag.Int("cols", 16, "embedding dimension (columns per row)")
		seed     = flag.Int64("seed", 1, "synthetic table contents seed")
		shards   = flag.Int("shards", 0, "spin up an in-process loopback NDP cluster with this many shards (0 = local backend)")
		ndpAddrs = flag.String("ndp", "", "comma-separated external NDP shard addresses (overrides -shards)")
		maxBatch = flag.Int("max-batch", 256, "coalescer size trigger (rows per batch)")
		inflight = flag.Int("max-inflight", 256, "admission: max lookups in flight")
		maxQueue = flag.Int("max-queue", 0, "admission: max queued lookups (0 = 4x max-inflight)")
		cacheRow = flag.Int("cache-rows", 4096, "hot-row result cache capacity per table (negative disables)")
		teleAdr  = flag.String("telemetry", "", "serve /metrics, /debug/serve, and pprof on this address")
	)
	flag.Parse()

	var reg *telemetry.Registry
	if *teleAdr != "" {
		reg = telemetry.NewRegistry()
		reg.PublishExpvar("secndp")
		bound, closeFn, err := reg.Serve(*teleAdr)
		if err != nil {
			fatal(err)
		}
		defer closeFn()
		fmt.Fprintf(os.Stderr, "secndp-dlrm: telemetry on http://%s/metrics\n", bound)
	}

	svc, cleanup, err := buildService(*tables, *rows, *cols, *seed, *shards, *ndpAddrs, serve.Config{
		MaxBatch:    *maxBatch,
		MaxInflight: *inflight,
		MaxQueue:    *maxQueue,
		CacheRows:   *cacheRow,
		Registry:    reg,
	})
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	defer svc.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		var req lookupRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		bags := make([]serve.Bag, len(req.Bags))
		for i, b := range req.Bags {
			bags[i] = serve.Bag{Table: b.Table, Idx: b.Idx, Weights: b.Weights}
		}
		results, err := svc.LookupBags(r.Context(), bags)
		switch {
		case err == nil:
		case errors.Is(err, serve.ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case errors.Is(err, serve.ErrUnknownTable):
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		case errors.Is(err, context.Canceled):
			return // client went away
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := lookupResponse{Results: make([]bagResult, len(results))}
		for i, res := range results {
			resp.Results[i] = bagResult{
				Values:    res.Values,
				Verified:  res.Verified,
				Degraded:  res.Degraded,
				CacheHits: res.CacheHits,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/tables", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"tables": svc.Tables(), "rows": *rows, "cols": *cols,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		st := svc.Stats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"stats":             st,
			"coalescing_factor": st.CoalescingFactor(),
			"cache_hit_rate":    st.CacheHitRate(),
		})
	})

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "secndp-dlrm: serving %d tables (%dx%d) on http://%s\n", *tables, *rows, *cols, *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case <-sig:
		fmt.Fprintln(os.Stderr, "secndp-dlrm: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}
}

type lookupRequest struct {
	Bags []struct {
		Table   string   `json:"table"`
		Idx     []int    `json:"idx"`
		Weights []uint64 `json:"weights,omitempty"`
	} `json:"bags"`
}

type lookupResponse struct {
	Results []bagResult `json:"results"`
}

type bagResult struct {
	Values    []uint64 `json:"values"`
	Verified  bool     `json:"verified"`
	Degraded  bool     `json:"degraded"`
	CacheHits int      `json:"cache_hits"`
}

// buildService provisions the engine, tables, and serving layer over the
// selected backend. The demo key is fixed: this binary serves synthetic
// tables for load testing, not production key management.
func buildService(tables, rows, cols int, seed int64, shards int, ndpAddrs string, cfg serve.Config) (*serve.Service, func(), error) {
	ctx := context.Background()
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}

	var specs []secndp.ShardSpec
	switch {
	case ndpAddrs != "":
		for _, a := range strings.Split(ndpAddrs, ",") {
			specs = append(specs, secndp.ShardSpec{Addr: strings.TrimSpace(a)})
		}
	case shards > 0:
		for i := 0; i < shards; i++ {
			srv := secndp.NewServer(secndp.NewMemory())
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			closers = append(closers, func() { srv.Close() })
			specs = append(specs, secndp.ShardSpec{Addr: addr})
		}
	}

	var opts []secndp.Option
	if cfg.Registry != nil {
		opts = append(opts, secndp.WithTelemetry(cfg.Registry))
	}
	eng, err := secndp.New([]byte("0123456789abcdef"), opts...)
	if err != nil {
		cleanup()
		return nil, nil, err
	}

	svc := serve.New(cfg)
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < tables; t++ {
		data := make([][]uint64, rows)
		for i := range data {
			data[i] = make([]uint64, cols)
			for j := range data[i] {
				data[i][j] = rng.Uint64() % (1 << 20)
			}
		}
		spec := secndp.TableSpec{
			Name: fmt.Sprintf("emb%d", t),
			Rows: rows, Cols: cols,
		}
		var backend secndp.Backend
		if len(specs) > 0 {
			// All tables share the shard servers at disjoint regions.
			rowBytes := uint64(cols * 4)
			span := uint64(rows)*rowBytes*2 + (1 << 20)
			spec.Base = 0x1000 + uint64(t)*span
			spec.TagBase = spec.Base + uint64(rows)*rowBytes
			backend = secndp.ClusterBackend(specs...)
		} else {
			backend = secndp.LocalBackend(secndp.NewMemory())
		}
		tab, err := eng.CreateTable(ctx, backend, spec, data)
		if err != nil {
			svc.Close()
			cleanup()
			return nil, nil, fmt.Errorf("table emb%d: %w", t, err)
		}
		closers = append(closers, func() { tab.Close() })
		if err := svc.AddTable(spec.Name, tab); err != nil {
			svc.Close()
			cleanup()
			return nil, nil, err
		}
	}
	return svc, cleanup, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secndp-dlrm:", err)
	os.Exit(1)
}
