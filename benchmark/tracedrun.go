package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/serve"
	"secndp/internal/telemetry"
)

// Shares of a traced run's -seconds: half to the alternating load slices,
// a third to the ladder replay (the fixture build, the counts and the
// kernel rates come on top and are short).
const (
	tracedLoadShare   = 0.5
	tracedLadderShare = 1.0 / 3
)

// selfLayers are the layers of the ladder, top to bottom; each gets a
// <layer>.self_us metric.
var selfLayers = []string{"serve", "secndp", "core", "cluster", "remote", "ndp", "otp", "field", "ring"}

func counterValue(snap telemetry.Snapshot, name string) float64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// serveMetrics turns the growth of a Service's counters between two
// snapshots into the serve layer's count metrics.
func serveMetrics(rep *report, before, after serve.Stats, rotations uint64) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	lookups, batches := after.Lookups-before.Lookups, after.Batches-before.Batches
	window, size := after.WindowFlushes-before.WindowFlushes, after.SizeFlushes-before.SizeFlushes
	rep.setOne("serve.cache_hit_ratio", ratio(hits, hits+misses))
	rep.setOne("serve.cache_stale_per_rotation", ratio(after.CacheStale-before.CacheStale, max(rotations, 1)))
	rep.setOne("serve.rows_per_batch", ratio(after.RowsFetched-before.RowsFetched, batches))
	rep.setOne("serve.batches_per_lookup", ratio(batches, lookups))
	rep.setOne("serve.join_ratio", ratio(after.CoalesceJoins-before.CoalesceJoins, misses))
	rep.setOne("serve.window_flush_share", ratio(window, window+size))
	rep.setOne("serve.shed_ratio", ratio(after.Shed-before.Shed, lookups))
}

// runTraced is the per-layer run. Two stacks are built from the same seed,
// one plain and one with the benchmark's spans, secndp.WithTelemetry and
// serve.Config.Registry on; load slices alternate between them so that
// machine noise hits both alike, and their op_p50 ratio is the tracing
// overhead. Then the ladder replays a sample of the same requests rung by
// rung. No end-to-end metric is taken from this run.
func runTraced(ctx context.Context, spec *workloadSpec, seed int64, cfg runConfig) (*report, error) {
	rep := newReport(spec, seed, true)
	rec := newRecorder()

	plain, err := setUp(ctx, seed, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer plain.Close()
	reg := secndp.NewTelemetry()
	traced, err := setUp(ctx, seed, spec, reg)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.Close()

	genStart := time.Now()
	reqs, err := genRequests(seed, spec, plain.tables, spec.Pool)
	if err != nil {
		return nil, err
	}
	rep.setOne("loadgen.gen_us_per_op", us(time.Since(genStart))/float64(len(reqs)))
	pools := map[*stack]*pool{plain: {reqs: reqs}, traced: {reqs: reqs}}

	if spec.RotateEvery > 0 {
		plain.startRotator(ctx)
		traced.startRotator(ctx)
	}

	// Load spans: one root per op of the traced slices. Request ids start
	// above the ladder's so the two kinds never share one.
	opName := rootName(spec.Op)
	var loadReq atomic.Uint64
	loadReq.Store(1 << 32)
	onOp := func(_ *request, start time.Time, r opResult) {
		rec.add(0, loadReq.Add(1), opName+"(load)", "loadgen", start, r.done, false)
	}

	sliceDur := time.Duration(cfg.seconds * tracedLoadShare / float64(cfg.slices) * float64(time.Second))
	cal := newCalibrator()
	for _, st := range []*stack{plain, traced} {
		runLoad(ctx, st, pools[st], cal, cfg.warmup()/2, nil)
	}
	var statsBefore serve.Stats
	if traced.svc != nil {
		statsBefore = traced.svc.Stats()
	}
	var rotBefore uint64
	if traced.rot != nil {
		rotBefore = traced.rot.rotations.Load()
	}
	var total tally
	var p50Plain, p50Traced, p90, p99, lag []float64
	for i := 0; i < cfg.slices || len(p50Traced) == 0; i++ {
		st, hook := plain, (func(*request, time.Time, opResult))(nil)
		if i%2 == 1 {
			st, hook = traced, onOp
		}
		ld := runLoad(ctx, st, pools[st], cal, sliceDur, hook)
		timed := ld.timed
		total.add(&ld.closed.tally)
		if timed != ld.closed {
			total.add(&timed.tally)
		}
		p50 := percentile(timed.lat, 0.50)
		if st == traced {
			p50Traced = append(p50Traced, p50)
			continue
		}
		p50Plain = append(p50Plain, p50)
		p90 = append(p90, percentile(timed.lat, 0.90))
		p99 = append(p99, percentile(timed.lat, 0.99))
		lag = append(lag, percentile(timed.lag, 0.99))
	}
	for _, st := range []*stack{plain, traced} {
		if st.rot != nil {
			if err := st.rot.Stop(); err != nil {
				return nil, err
			}
		}
	}
	loadedP50 := median(p50Plain)
	rep.set("loadgen.op_p90_us", p90)
	rep.set("loadgen.op_p99_us", p99)
	rep.set("loadgen.sched_lag_p99_us", lag)
	rep.setOne("telemetry.trace_overhead_pct", 100*(median(p50Traced)/loadedP50-1))
	attempted := uint64(max(total.attempted, 1))
	rep.setOne("loadgen.fail_ratio", ratio(uint64(total.failed), attempted))
	rep.setOne("loadgen.retry_ratio", ratio(uint64(total.retried), attempted))
	rep.setOne("serve.mixed_epoch_ratio", ratio(uint64(total.mixed), attempted))

	snap := reg.Snapshot()
	rep.setOne("cluster.failovers", counterValue(snap, "secndp_cluster_replica_failovers_total"))
	rep.setOne("cluster.mirror_fills", counterValue(snap, "secndp_cluster_mirror_fills_total"))
	var padHits, padMisses uint64
	for _, tab := range traced.tabs {
		h, m := tab.CacheStats()
		padHits, padMisses = padHits+h, padMisses+m
	}
	rep.setOne("secndp.padcache_hit_ratio", ratio(padHits, padHits+padMisses))
	var statsAfter serve.Stats
	var rotations uint64
	if traced.svc != nil {
		statsAfter = traced.svc.Stats()
	}
	if traced.rot != nil {
		rotations = traced.rot.rotations.Load() - rotBefore
	}
	// The load is over; free both stacks before the ladder builds its own.
	tables := plain.tables
	plain.Close()
	traced.Close()

	sample := withVariants(append([]request(nil), reqs[:min(len(reqs), ladderSample)]...))
	lad, err := newLadder(ctx, seed, spec, tables, rec)
	if err != nil {
		return nil, err
	}
	defer lad.Close()
	budget := time.Duration(cfg.seconds * tracedLadderShare * float64(time.Second))
	replayed, err := lad.run(ctx, sample, budget)
	if err != nil {
		return nil, err
	}
	if traced.svc == nil {
		// No service in this workload's stack: the counts come from the
		// ladder's default-config service instead.
		statsAfter = lad.svcHit.Stats()
	}
	serveMetrics(rep, statsBefore, statsAfter, rotations)

	for name, xs := range lad.obs {
		rep.set(name, xs)
	}
	if re := rep.Metrics["secndp.reencrypt_p50_ms"].Median; re > 0 {
		rep.setOne("secndp.reencrypt_rows_per_s", float64(spec.Rows)/(re/1e3))
	}
	var refs, distinct int
	for i := range sample[:replayed] {
		seen := map[[2]int]bool{}
		for _, b := range sample[i].bags {
			for _, row := range b.idx {
				refs++
				seen[[2]int{b.table, row}] = true
			}
		}
		distinct += len(seen)
	}
	rep.setOne("core.batch_dedup_ratio", ratio(uint64(distinct), uint64(refs)))
	geo := lad.tabs[0].geo
	rep.setOne("ndp.bytes_gathered_per_op", float64(refs)/float64(max(replayed, 1))*float64(geo.Layout.RowBytes+16))

	rec.mu.Lock()
	selfs := layerSelfMedians(rec.spans, opName)
	rec.mu.Unlock()
	attributed := 0.0
	for _, layer := range selfLayers {
		rep.setOne(layer+".self_us", selfs[layer])
		attributed += selfs[layer]
	}
	if loadedP50 > 0 {
		rep.setOne("loadgen.unattributed_share", (loadedP50-attributed)/loadedP50)
	}

	path, err := rec.write(cfg.outDir, spec.Name, seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d requests replayed down the ladder; spans in %s\n", replayed, path)
	rep.finish(spec, &total)
	return rep, nil
}
