// Package secndp is a from-scratch Go reproduction of "SecNDP: Secure
// Near-Data Processing with Untrusted Memory" (HPCA 2022): a lightweight
// encryption and verification scheme that lets a trusted processor offload
// linear computation to untrusted near-data-processing units by combining
// counter-mode one-time pads with two-party arithmetic secret sharing, and
// verifying results with encrypted linear checksums over GF(2^127−1).
//
// The package itself is the public facade. An Engine owns the secret key
// and version discipline; Engine.CreateTable provisions an encrypted table
// through a pluggable Backend and returns a Table handle; Table.Query runs
// the weighted-sum protocol through the one query engine — NDP ciphertext
// sums, OTP share regeneration and tag-pad dot, joined and MAC-checked.
// A query is a batch of one. A small query against an in-process NDP runs
// its exchange and then its pad walk on the caller's goroutine; a remote
// or cluster table overlaps the NDP exchange with the pad walk, and a pad
// walk of 128 KiB or more is planned and spread across a worker pool (the
// software analogue of the paper's multiple OTP engines, §V-C2):
//
//	eng, _ := secndp.New(key, secndp.WithParallelism(8))
//	mem := secndp.NewMemory()
//	tab, _ := eng.CreateTable(ctx, secndp.LocalBackend(mem), secndp.TableSpec{Rows: n, Cols: m}, rows)
//	res, err := tab.Query(ctx, secndp.Request{Idx: idx, Weights: w})
//	// errors.Is(err, secndp.ErrVerification) ⇒ tampered result rejected.
//
// # Backends
//
// A Backend selects where the ciphertext lives and which NDP serves the
// table's queries; the set is closed and CreateTable is the single entry
// point for all of them:
//
//   - LocalBackend(mem) — ciphertext in an in-process untrusted memory,
//     queries served by an in-process NDP over it. The paper's
//     single-memory-system shape; fastest for tests and experiments.
//   - ClusterBackend(shards...) — shard the table's rows across several
//     NDP servers and scatter-gather queries over them, with one
//     aggregated verification covering each whole gather (see below).
//   - RemoteBackend(client) — encrypt locally, ship only ciphertext and
//     tags to one remote NDP server over the wire protocol: the one-shard
//     ClusterBackend over the caller's transport, so it queries, batches,
//     fails over and degrades exactly as a cluster does.
//
// # Clusters
//
// ClusterBackend partitions rows across shards — contiguous ranges by
// default, or by a fixed hash of the row index with Sharding(ShardByHash).
// The engine encrypts once into TEE staging under one global layout, then
// ships each shard only its rows' ciphertext and tags at their global
// addresses. Queries and batches split along the shard map, the per-shard
// partial sums return concurrently, and by the scheme's linearity the
// gathered result decrypts and verifies exactly as a single NDP holding
// every row would — one aggregated MAC check per gather, regardless of the
// shard count. When that check rejects, the facade bisects over the shards
// to name the culprit(s) in the error. DESIGN.md §9 develops the math.
//
// Replicas(R) backs every shard with R servers provisioned with identical
// ciphertext+tags (spec list shard-major: shard 0's replicas first).
// Deterministic encryption makes any replica's partials byte-identical,
// so a replica failure costs one client-side failover — the result stays
// Verified and is NOT Degraded; the TEE mirror is consulted only after a
// shard's every replica refused. Table.Reshard migrates a serving cluster
// table to a new layout live: moved rows stream from TEE staging to their
// new owners in rate-limited chunks while queries serve from the old
// epoch, then one atomic flip publishes the new topology and in-flight
// gathers that straddled it re-issue transparently. DESIGN.md §10 covers
// the failover ordering and the epoch state machine.
//
// Transport precedence for each ShardSpec: a non-nil ShardSpec.Transport
// is used as-is and stays caller-owned (Table.Close does not close it);
// otherwise ShardSpec.Addr resolves to the engine's one transport for
// that address, dialed on first use with the engine-level
// TransportConfig set by WithTransport and shared by every table of the
// engine naming the address (Table.Close drops the table's reference;
// the last one closes it); with no WithTransport option, dialing uses
// the zero-value transport defaults. Tables sharing a shard's transport
// share its exchanges: secndp.QueryBatches sends all their sub-batches
// for that shard as pipelined frames on one connection.
//
// ReplicaGroups normally pin reads to a preferred replica;
// ClusterBackend(...).Replicas(R).ReadBalance(p) selects a different read
// policy — ReplicaRoundRobin rotates across healthy replicas,
// ReplicaLeastInflight picks the one with the fewest outstanding sub-ops.
//
// # Multi-tenant serving
//
// A Table is safe for concurrent use, but each Query is still one
// caller's request. For serving many users against shared tables —
// the DLRM embedding-serving shape — internal/serve layers cross-user
// batch coalescing (lookups that arrive while a drain is on the wire
// merge into the next one, a QueryBatches call over every cluster table
// at once — or over one table with no exchange to share — so a hot row
// is fetched and verified once per drain, not once per user; an idle
// service fetches at once), a bounded epoch-keyed cache of verified
// rows that
// Reencrypt and Reshard invalidate by construction, and admission
// control that sheds overload with a typed error instead of queueing
// without bound. cmd/secndp-dlrm exposes it over HTTP and
// cmd/secndp-loadgen is the paired closed-loop load generator; the
// serving path returns the same verified results the facade would.
//
// # Failure model
//
// A remote NDP is reached through a fault-tolerant transport: DialReliableNDP
// returns a ReliableNDP backed by a reconnecting connection pool, a retry
// loop with exponential backoff and jitter (every wire operation is
// idempotent), and a circuit breaker that stops hammering a dead server and
// probes it back to life. Failures surface as typed sentinels — branch with
// errors.Is:
//
//   - ErrRetriesExhausted — the transport gave up after its configured
//     attempts; the NDP server is unreachable or persistently failing.
//   - ErrCircuitOpen — the breaker is rejecting calls outright until a
//     probe succeeds; callers get an immediate failure instead of a
//     timeout.
//   - ErrVerification — the NDP answered, but the encrypted-MAC check
//     rejected the result: tampering, replay, or corruption in flight.
//
// With WithFallback, the remote and cluster backends additionally keep the
// encrypted staging image inside the TEE as a trusted mirror; when the
// transport is down or verification keeps failing, queries are recomputed
// locally from the mirror (the paper's trusted-processor baseline, Figure
// 4(b)) and return Result.Degraded = true instead of an error. On a
// cluster, the mirror is also the unit of graceful degradation per shard:
// a failed shard's partials are recomputed from the mirror while the
// surviving shards' work is kept, the aggregated check still runs over the
// filled gather (so such results stay Verified), and the result is marked
// Degraded.
//
// # Batch error contract
//
// QueryBatch never stops early: every request in the batch is attempted.
// Results align with requests; a failed request leaves a zero Result at its
// index, and the returned error joins every per-request failure annotated
// with its request index ("request 3: ..."). errors.Is works through the
// join, so errors.Is(err, ErrVerification) detects a rejected result
// anywhere in the batch; siblings of a failed request are still valid (and
// Verified, when verification ran).
//
// # Unified queries
//
// Request covers both granularities through one Query entry point: a
// whole-row weighted sum by default, or an element-indexed sum when
// Request.Cols is set (no verification applies — the paper's tags
// authenticate whole-row linear combinations). Both routes record under
// the same "query" telemetry labels and populate Result.Timing the same
// way, including Fallback time when the TEE mirror served the request.
//
// The repository layout behind the facade:
//
//   - internal/core — the SecNDP scheme itself (Algorithms 1–8) and the
//     concurrent query engine (parallel.go, batchplan.go).
//   - internal/cluster — the shard map and scatter-gather NDP behind
//     ClusterBackend.
//   - internal/{ring,field,otp,memory} — the crypto and memory substrates.
//   - internal/remote — the untrusted NDP server and its context-aware
//     TCP client.
//   - internal/{dram,addrmap,ndp,engine,sim} — the cycle-level performance
//     simulator reproducing the paper's evaluation framework.
//   - internal/{workload,dlrm,quant,stats,energy,tee} — workloads, the
//     recommendation model, quantization, analytics, and cost models.
//   - internal/experiments — one entry point per paper table/figure.
//   - cmd/secndp-bench — regenerates every table and figure.
//   - examples/ — runnable walkthroughs of the facade.
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root bench_test.go holds one testing.B benchmark per paper artifact
// plus the ablation benches called out in DESIGN.md §4.
package secndp
