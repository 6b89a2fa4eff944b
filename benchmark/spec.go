package main

import "time"

// This file is the benchmark's frozen definition: the four workloads with
// every size, rate and client count, and every metric with its unit,
// direction, bound, layer and the end-to-end metric it is predicted to
// move. Nothing here is calibrated at run time — a faster program must be
// offered the same load, not more. BENCHMARK.json at the repository root
// lists the same names (its schema has no room for the constants, so they
// live here); spec_test.go fails if the two drift.

type backendKind int

const (
	backendLocal backendKind = iota
	backendCluster
)

type opKind int

const (
	opQuery      opKind = iota // secndp.Table.Query, one bag
	opQueryBatch               // secndp.Table.QueryBatch, all bags one batch
	opLookup                   // serve.Service.LookupBags, one bag per table
)

// workloadSpec is one named workload. A request is BagsPerOp bags of
// BagRows rows each; weights are uniform in [1, MaxWeight].
type workloadSpec struct {
	Name string
	Why  string

	Op      opKind
	Backend backendKind
	Shards  int // loopback NDP servers (cluster backend only)

	Tables, Rows, Cols int
	BagsPerOp, BagRows int
	Zipf               bool // dlrm.Traffic Zipf s=1.07 rows; false = uniform
	MaxWeight          uint64

	// Clients drives the closed loop; 0 means nproc.
	Clients int
	// OpenRate > 0 splits every slice into an open-loop half at this many
	// ops/s (latency from due time) and a closed-loop half (capacity).
	OpenRate int
	// RotateEvery > 0 runs one rotator goroutine calling Table.Reencrypt
	// on one table per tick, round-robin, with contents base+epoch.
	RotateEvery time.Duration
	// FailCeiling is the largest failed/attempted the run accepts.
	FailCeiling float64
	// Pool is how many requests are generated up front and cycled.
	Pool int
	// RefUnitUs is the calibration kernel's unit time inside this
	// workload's timed phase on the reference machine (this box when
	// quiet): the scale that keeps calibrated figures close to real ones.
	// Frozen — changing it rescales the workload's timing metrics.
	RefUnitUs float64
}

const (
	runSeconds    = 24   // BENCHMARK.json run_seconds: what the driver passes as --seconds
	slices        = 6    // measured slices per run; metrics are medians over them
	warmupShare   = 9    // warm-up lasts seconds/warmupShare
	setupRepeats  = 11   // set-ups timed per run; setup_s is their median
	inflightCap   = 4096 // open-loop lookups in flight before the dispatcher waits for one to end
	ratioShare    = 0.15 // share of each slice spent in single-thread ratio blocks
	ratioBlockOps = 16   // ops per timed block in the ratio phase
	maxRetries    = 200  // attempts per lookup around a rotation or after an admission shed
	ladderSample  = 2000 // requests replayed down the ladder (time-capped per rung)
	elemBits      = 32
)

var workloads = []workloadSpec{
	{
		Name: "sls_local",
		Why:  "Table.Query SLS (80 uniform rows) on one 16 MiB LocalBackend table: core and the otp/field/ring kernels do nearly all the work, serve/cluster/remote none; carries the paper's protection ratio",
		Op:   opQuery, Backend: backendLocal,
		Tables: 1, Rows: 65536, Cols: 64, BagsPerOp: 1, BagRows: 80, MaxWeight: 8,
		Pool: 4096, RefUnitUs: 6.5,
	},
	{
		Name: "batch_cluster",
		Why:  "Table.QueryBatch of 64x8 uniform rows over a 4-shard loopback ClusterBackend: cluster scatter/gather, remote framing and syscalls and server-side ndp gather dominate; the allocation tax shows here",
		Op:   opQueryBatch, Backend: backendCluster, Shards: 4,
		// 16384 rows, not 65536: remote caps a provisioning blob at 1 MiB and
		// range sharding ships one blob per shard, so 4 x 4096 rows x 256 B
		// is the largest table CreateTable can build on four shards.
		Tables: 1, Rows: 16384, Cols: 64, BagsPerOp: 64, BagRows: 8, MaxWeight: 8,
		Pool: 512, RefUnitUs: 7.0,
	},
	{
		Name: "serve_zipf",
		Why:  "serve.LookupBags at defaults, Zipf s=1.07 bags on 4 tables over 2 loopback shards, open loop at 3000/s then 16 closed-loop clients: admission, row cache, coalescer and TEE-side fold do the work",
		Op:   opLookup, Backend: backendCluster, Shards: 2,
		Tables: 4, Rows: 16384, Cols: 32, BagsPerOp: 4, BagRows: 8, Zipf: true, MaxWeight: 8,
		Clients: 16, OpenRate: 3000,
		Pool: 8192, RefUnitUs: 8.2,
	},
	{
		Name: "serve_rotate",
		Why:  "the same Zipf traffic on 4 LocalBackend tables while one table is re-encrypted with new contents every 250 ms: writes beside reads, epoch invalidation, cold refills, retries around the rotation",
		Op:   opLookup, Backend: backendLocal,
		Tables: 4, Rows: 16384, Cols: 32, BagsPerOp: 4, BagRows: 8, Zipf: true, MaxWeight: 8,
		Clients: 16, OpenRate: 3000, RotateEvery: 250 * time.Millisecond,
		FailCeiling: 0.001,
		Pool:        8192, RefUnitUs: 7.9,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smoke shrinks a workload to a fraction-of-a-second run on tiny tables;
// the code paths are the same.
func (w workloadSpec) smoke() workloadSpec {
	w.Rows = 1024
	if w.Pool > 256 {
		w.Pool = 256
	}
	if w.OpenRate > 0 {
		w.OpenRate = 1000
	}
	if w.RotateEvery > 0 {
		w.RotateEvery = 40 * time.Millisecond
	}
	return w
}

// metricSpec defines one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only
	Moves  string  // per-layer only: the end-to-end metric @ workload it should move
	Doc    string
}

// endToEnd metrics are measured with tracing off and emitted for every
// workload. "op" is one Query / QueryBatch / LookupBags call. The four
// timing metrics are calibrated: each slice's raw value is scaled by the
// speed of a fixed reference kernel timed between that slice's load
// segments, because on a shared box the processor itself runs a fifth
// faster or slower from one half-minute to the next (calib.go).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "row generation through first verified result (encrypt, ship to shards, build service); median of 11 set-ups"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "closed-loop ops completed and checked per second (closed half of the slice on the serve workloads), scaled to the reference machine speed (calib.go)"},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "median op latency: closed loop on sls_local/batch_cluster, open loop from due time on serve_*; scaled to the reference machine speed"},
	{Name: "protection_overhead_x", Unit: "x", Better: "lower", Bound: 0.25,
		Doc: "single-caller verified op time over the plaintext weighted sum of the same requests, interleaved blocks inside each slice (the runtime's own Table III figure); on serve_* the op is the facade fetch the coalescer issues, not LookupBags, which would time the coalescing window"},
	{Name: "verify_overhead_x", Unit: "x", Better: "lower", Bound: 0.10,
		Doc: "verified over Request{Unverified:true} on the same requests (Fig. 7 Enc+Ver vs Enc); on serve_* the facade fetch the coalescer issues"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "process user+sys CPU (getrusage) per op over the phase whose schedule fixes the work: the open loop on serve_*, the closed loop otherwise; scaled to the reference machine speed"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10,
		Doc: "runtime.MemStats Mallocs delta over the measured load phases per op, whole process"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05,
		Doc: "runtime.MemStats TotalAlloc delta over the measured load phases per op, whole process"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		Doc: "VmHWM after the last measured slice (first set-up plus serving)"},
}

// perLayer metrics come from the traced run: counters over a short traced
// load plus the layer ladder. Times are medians over the replayed sample.
// <layer>.self_us is the layer's self time on the blocking chain of the
// workload's own op — a rung minus the rungs below it, following only the
// slowest of overlapped rungs — so the nine of them plus
// loadgen.unattributed_share account for the loaded op_p50.
var perLayer = []metricSpec{
	// loadgen: validity of the measurement itself.
	{Name: "loadgen.sched_lag_p99_us", Unit: "us", Better: "lower", Layer: "loadgen", Moves: "none (validity: above 1000 the open-loop slice is flagged)",
		Doc: "open-loop dispatcher lateness, 99th percentile (0 on closed-loop workloads)"},
	{Name: "loadgen.op_p90_us", Unit: "us", Better: "lower", Layer: "loadgen", Moves: "none (ungated: under rotation its run-to-run spread reached 60 %)",
		Doc: "90th-percentile op latency, same loop as op_p50_us, as measured (not calibrated)"},
	{Name: "loadgen.op_p99_us", Unit: "us", Better: "lower", Layer: "loadgen", Moves: "none (ungated tail; did not repeat within a tenth)",
		Doc: "99th-percentile op latency, same loop as op_p50_us, as measured (not calibrated)"},
	{Name: "loadgen.gen_us_per_op", Unit: "us", Better: "lower", Layer: "loadgen", Moves: "none (benchmark's own cost)",
		Doc: "request generation plus oracle cost per op against a no-op sink"},
	{Name: "loadgen.unattributed_share", Unit: "ratio", Better: "lower", Layer: "loadgen", Moves: "none (what the ladder cannot explain)",
		Doc: "(loaded op_p50 - sum of self times on the blocking chain) / op_p50: queueing and contention the single-caller ladder does not see"},
	{Name: "loadgen.fail_ratio", Unit: "ratio", Better: "lower", Layer: "loadgen", Moves: "failed @ all",
		Doc: "(errors + wrong values + unverified) / attempted"},
	{Name: "loadgen.retry_ratio", Unit: "ratio", Better: "lower", Layer: "loadgen", Moves: "loadgen.op_p90_us, cpu_us_per_op @ serve_rotate",
		Doc: "lookups retried around a rotation (ErrVerification or Table.Epoch moved) or after an admission shed (serve.ErrOverloaded) / attempted; the number shadow rotation must drive to 0"},

	// serve
	{Name: "serve.hit_path_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "ops_per_s, cpu_us_per_op @ serve_zipf",
		Doc: "LookupBags with every row pre-cached: admission + cache + fold"},
	{Name: "serve.miss_path_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "op_p50_us @ serve_zipf, serve_rotate",
		Doc: "LookupBags with CacheRows:-1, one caller: window wait + one coalesced fetch per table"},
	{Name: "serve.self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "op_p50_us @ serve_zipf, serve_rotate",
		Doc: "chain self time: miss-path LookupBags minus its slowest per-table QueryBatch (admission, window wait, fold); 0 off the lookup workloads"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "ops_per_s @ serve_zipf (predicted lower on serve_rotate)",
		Doc: "Stats CacheHits / (CacheHits + CacheMisses)"},
	{Name: "serve.cache_stale_per_rotation", Unit: "count", Better: "lower", Layer: "serve", Moves: "loadgen.op_p90_us @ serve_rotate",
		Doc: "Stats CacheStale delta per completed rotation (0 without rotation)"},
	{Name: "serve.rows_per_batch", Unit: "count", Better: "higher", Layer: "serve", Moves: "ops_per_s @ serve_zipf",
		Doc: "Stats RowsFetched / Batches"},
	{Name: "serve.batches_per_lookup", Unit: "count", Better: "lower", Layer: "serve", Moves: "cpu_us_per_op @ serve_zipf",
		Doc: "Stats Batches / Lookups"},
	{Name: "serve.join_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "ops_per_s @ serve_zipf",
		Doc: "Stats CoalesceJoins / CacheMisses"},
	{Name: "serve.window_flush_share", Unit: "ratio", Better: "lower", Layer: "serve", Moves: "op_p50_us @ serve_zipf",
		Doc: "Stats WindowFlushes / (WindowFlushes + SizeFlushes)"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower", Layer: "serve", Moves: "failed @ serve_zipf, serve_rotate",
		Doc: "Stats Shed / Lookups"},
	{Name: "serve.mixed_epoch_ratio", Unit: "ratio", Better: "lower", Layer: "serve", Moves: "failed @ serve_rotate (if callers stop retrying)",
		Doc: "lookups whose first answer mixed rows of two epochs (Verified, wrong for every single epoch) / attempted"},

	// secndp facade
	{Name: "secndp.query_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "ops_per_s, op_p50_us @ sls_local",
		Doc: "Table.Query on a LocalBackend table, first bag of each sampled request"},
	{Name: "secndp.self_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "ops_per_s, op_p50_us @ sls_local; ops_per_s, allocs_per_op @ batch_cluster",
		Doc: "chain self time: Table.Query minus core.QueryCtx, or Table.QueryBatch minus core.QueryBatchCtx on the same NDP (what the facade adds over the engine)"},
	{Name: "secndp.query_unverified_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "verify_overhead_x @ sls_local",
		Doc: "Table.Query with Request.Unverified"},
	{Name: "secndp.query_batch_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "ops_per_s, op_p50_us @ batch_cluster",
		Doc: "Table.QueryBatch on the workload's backend in the op's batch shape: the one bag, the 64 bags, or bag 0's unit-row fetch"},
	{Name: "secndp.query_batch_unit_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "op_p50_us @ serve_zipf, serve_rotate",
		Doc: "Table.QueryBatch in the coalescer's shape: the request's distinct rows as single-row unit-weight requests"},
	{Name: "secndp.timing_pad_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "ops_per_s @ sls_local",
		Doc: "median Result.Timing.Pad of the query_us rung"},
	{Name: "secndp.timing_ndp_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "ops_per_s @ sls_local",
		Doc: "median Result.Timing.NDP of the query_us rung"},
	{Name: "secndp.timing_tag_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "verify_overhead_x @ sls_local",
		Doc: "median Result.Timing.Tag of the query_us rung"},
	{Name: "secndp.timing_verify_us", Unit: "us", Better: "lower", Layer: "secndp", Moves: "verify_overhead_x @ sls_local",
		Doc: "median Result.Timing.Verify of the query_us rung"},
	{Name: "secndp.padcache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "secndp", Moves: "ops_per_s @ sls_local (0 at engine defaults: no pad cache)",
		Doc: "Table.CacheStats hits / (hits + misses)"},
	{Name: "secndp.reencrypt_p50_ms", Unit: "ms", Better: "lower", Layer: "secndp", Moves: "loadgen.op_p90_us, cpu_us_per_op @ serve_rotate",
		Doc: "Table.Reencrypt with new contents on a local table of the workload's geometry"},
	{Name: "secndp.reencrypt_rows_per_s", Unit: "1/s", Better: "higher", Layer: "secndp", Moves: "loadgen.op_p90_us, cpu_us_per_op @ serve_rotate",
		Doc: "rows / reencrypt_p50"},
	{Name: "secndp.create_table_local_ms", Unit: "ms", Better: "lower", Layer: "secndp", Moves: "setup_s @ sls_local, serve_rotate",
		Doc: "Engine.CreateTable on LocalBackend, one table of the workload's geometry"},
	{Name: "secndp.create_table_cluster_ms", Unit: "ms", Better: "lower", Layer: "secndp", Moves: "setup_s @ batch_cluster, serve_zipf",
		Doc: "Engine.CreateTable on ClusterBackend over the ladder's loopback shards"},

	// core
	{Name: "core.query_ctx_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_p50_us @ sls_local",
		Doc: "core.Table.QueryCtx + in-process HonestNDP: the path the facade runs"},
	{Name: "core.query_verified_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s @ sls_local (the fused path the facade does not run; the gap is the prize)",
		Doc: "core.Table.QueryVerified"},
	{Name: "core.otp_sum_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s @ sls_local",
		Doc: "core.Table.OTPWeightedSumCtx"},
	{Name: "core.tag_pad_sum_us", Unit: "us", Better: "lower", Layer: "core", Moves: "verify_overhead_x @ sls_local",
		Doc: "core.Table.TagPadSumCtx"},
	{Name: "core.verify_us", Unit: "us", Better: "lower", Layer: "core", Moves: "verify_overhead_x @ sls_local",
		Doc: "core.Table.Decrypt + Checksum + compare, the join QueryCtx ends with"},
	{Name: "core.self_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_p50_us @ sls_local; ops_per_s @ batch_cluster",
		Doc: "chain self time: QueryCtx minus its slowest overlapped half minus the join, or QueryBatchCtx minus the NDP exchange (planning, the pad sweep, hand-offs, halves queueing for a core)"},
	{Name: "core.query_batch_ctx_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s @ batch_cluster",
		Doc: "core.Table.QueryBatchCtx in the op's batch shape + in-process HonestNDP"},
	{Name: "core.batch_dedup_ratio", Unit: "ratio", Better: "lower", Layer: "core", Moves: "none (property of the generated input)",
		Doc: "distinct rows / row references in the sampled requests"},
	{Name: "core.encrypt_table_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "core", Moves: "setup_s @ all; loadgen.op_p90_us @ serve_rotate",
		Doc: "Scheme.EncryptTable throughput on the workload's geometry"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: "allocs_per_op @ sls_local",
		Doc: "Mallocs per QueryCtx"},
	{Name: "core.allocs_per_batch", Unit: "count", Better: "lower", Layer: "core", Moves: "allocs_per_op @ batch_cluster",
		Doc: "Mallocs per QueryBatchCtx"},

	// cluster
	{Name: "cluster.batch_gather_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: "op_p50_us, ops_per_s @ batch_cluster",
		Doc: "cluster.NDP.WeightedTagSumBatch over the ladder's loopback shards"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: "op_p50_us, ops_per_s @ batch_cluster",
		Doc: "chain self time: the gather minus remote.batch_rtt_us of its largest shard sub-batch (the slowest part sets the gather); 0 on local backends"},
	{Name: "cluster.shard_skew", Unit: "ratio", Better: "lower", Layer: "cluster", Moves: "op_p50_us @ batch_cluster",
		Doc: "max / mean rows per shard per batch"},
	{Name: "cluster.allocs_per_batch", Unit: "count", Better: "lower", Layer: "cluster", Moves: "allocs_per_op @ batch_cluster",
		Doc: "Mallocs per WeightedTagSumBatch gather, whole process (clients and in-process servers)"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Layer: "cluster", Moves: "failed @ batch_cluster, serve_zipf (expected 0)",
		Doc: "secndp_cluster_replica_failovers_total over the traced load"},
	{Name: "cluster.mirror_fills", Unit: "count", Better: "lower", Layer: "cluster", Moves: "failed @ batch_cluster, serve_zipf (expected 0)",
		Doc: "secndp_cluster_mirror_fills_total over the traced load"},

	// remote
	{Name: "remote.ping_rtt_us", Unit: "us", Better: "lower", Layer: "remote", Moves: "none (the machine's loopback round-trip floor)",
		Doc: "ReliableClient.PingContext"},
	{Name: "remote.batch_rtt_us", Unit: "us", Better: "lower", Layer: "remote", Moves: "op_p50_us @ batch_cluster, serve_zipf",
		Doc: "ReliableClient.WeightedTagSumBatch of the batch's largest shard sub-batch against one loopback server"},
	{Name: "remote.self_us", Unit: "us", Better: "lower", Layer: "remote", Moves: "op_p50_us @ batch_cluster, serve_zipf",
		Doc: "chain self time: batch_rtt_us - ndp.batch_us: frame + syscall + TCP; 0 on local backends"},
	{Name: "remote.wire_bytes_per_batch", Unit: "B", Better: "lower", Layer: "remote", Moves: "op_p50_us @ batch_cluster",
		Doc: "request + reply bytes of that sub-batch, computed from the frame layout and the returned sums (not captured)"},
	{Name: "remote.allocs_per_rtt", Unit: "count", Better: "lower", Layer: "remote", Moves: "allocs_per_op @ batch_cluster",
		Doc: "Mallocs per batch round trip, whole process (client and in-process server)"},
	{Name: "remote.attempts_per_op", Unit: "count", Better: "lower", Layer: "remote", Moves: "failed @ batch_cluster, serve_zipf (expected 1)",
		Doc: "ReliableClient.Stats Attempts per batch round trip"},
	{Name: "remote.retries", Unit: "count", Better: "lower", Layer: "remote", Moves: "failed @ batch_cluster, serve_zipf (expected 0)",
		Doc: "ReliableClient.Stats Retries over the ladder"},

	// ndp (untrusted side, in process)
	{Name: "ndp.weighted_sum_us", Unit: "us", Better: "lower", Layer: "ndp", Moves: "ops_per_s @ sls_local",
		Doc: "HonestNDP.WeightedSum of the first bag"},
	{Name: "ndp.tag_sum_us", Unit: "us", Better: "lower", Layer: "ndp", Moves: "verify_overhead_x @ sls_local",
		Doc: "HonestNDP.TagSum of the first bag"},
	{Name: "ndp.batch_us", Unit: "us", Better: "lower", Layer: "ndp", Moves: "op_p50_us @ batch_cluster",
		Doc: "HonestNDP.WeightedTagSumBatch of the same sub-batch as remote.batch_rtt_us"},
	{Name: "ndp.self_us", Unit: "us", Better: "lower", Layer: "ndp", Moves: "op_p50_us @ batch_cluster",
		Doc: "chain self time: the NDP call minus its ring and field kernel loops: view lock, row reads, planning"},
	{Name: "ndp.bytes_gathered_per_op", Unit: "B", Better: "lower", Layer: "ndp", Moves: "ops_per_s @ sls_local, batch_cluster",
		Doc: "row + tag bytes the NDP reads per op, computed from the geometry and the row references"},

	// kernels, per row of the workload's geometry
	{Name: "otp.pad_scale_accum_ns_per_row", Unit: "ns", Better: "lower", Layer: "otp", Moves: "ops_per_s, protection_overhead_x @ sls_local (none @ serve_zipf)",
		Doc: "Generator.PadScaleAccum, the kernel QueryCtx uses"},
	{Name: "otp.pad_tag_scale_accum_ns_per_row", Unit: "ns", Better: "lower", Layer: "otp", Moves: "ops_per_s, protection_overhead_x @ sls_local once the facade uses it",
		Doc: "Generator.PadTagScaleAccum, the fused kernel"},
	{Name: "otp.tag_pads_ns_per_row", Unit: "ns", Better: "lower", Layer: "otp", Moves: "verify_overhead_x @ sls_local",
		Doc: "Generator.TagPads"},
	{Name: "otp.keystream_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "otp", Moves: "setup_s @ all; loadgen.op_p90_us @ serve_rotate",
		Doc: "Keystream.PadsInto over 4 KiB chunks"},
	{Name: "field.dot_uint64_ns_per_elem", Unit: "ns", Better: "lower", Layer: "field", Moves: "verify_overhead_x @ sls_local",
		Doc: "field.DotUint64 per element"},
	{Name: "ring.scale_accum_bytes_ns_per_row", Unit: "ns", Better: "lower", Layer: "ring", Moves: "ops_per_s @ sls_local, batch_cluster",
		Doc: "Ring.ScaleAccumBytes on one ciphertext row"},

	{Name: "otp.self_us", Unit: "us", Better: "lower", Layer: "otp", Moves: "ops_per_s, op_p50_us @ sls_local",
		Doc: "chain self time of the pad half (OTPWeightedSumCtx or TagPadSumCtx) when it is the slowest overlapped half of QueryCtx; else 0"},
	{Name: "field.self_us", Unit: "us", Better: "lower", Layer: "field", Moves: "verify_overhead_x @ sls_local",
		Doc: "chain self time: the decrypt-and-checksum join, plus the tag multiply-accumulate loop under the NDP when the NDP is on the chain"},
	{Name: "ring.self_us", Unit: "us", Better: "lower", Layer: "ring", Moves: "ops_per_s @ sls_local, batch_cluster",
		Doc: "chain self time: the row scale-accumulate loop under the NDP when the NDP is on the chain"},

	// telemetry
	{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "telemetry", Moves: "none (cost of leaving tracing on)",
		Doc: "op_p50 with benchmark spans, secndp.WithTelemetry and serve.Config.Registry on, over op_p50 with them off, alternating slices of one process"},
}
