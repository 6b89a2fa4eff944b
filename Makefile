# SecNDP reproduction — convenience targets.

GO ?= go

.PHONY: all build test test-race serve-check batch-check write-check bench bench-check gates loadtest vet inline-check fuzz examples experiments quick artifacts clean

all: build vet test

build:
	$(GO) build ./...

# vet first fails on any Go file gofmt would rewrite (the benchmark's
# ignored build directory aside). It also cross-vets the packages that
# carry amd64 assembly for arm64, so their build-tagged fallbacks
# (memory/prefetch_other.go, ring/accum_other.go, otp/ctr_fallback.go, and
# core, which calls through them) cannot stop compiling unnoticed; the
# standard library cross-compiles offline.
vet: inline-check
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/memory ./internal/core ./internal/ring ./internal/otp

# memory.Layout.RowAddr must stay inlinable. As a call it copies the Layout
# through the stack, and the copy's store-forward stall waits for the
# previous row's cache miss: every per-row caller (otpWalk, otpBatch,
# the table encoder, DecryptRow, Reencrypt) then runs at memory latency.
inline-check:
	$(GO) build -gcflags=-m ./internal/memory 2>&1 | grep -q 'can inline Layout.RowAddr'

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The serving layer's gate: vet, the package twice under the race
# detector (caller-run drains and their hand-off, the invariant hammer,
# a canceled lookup running a drain, Close with work in flight, the row
# cache's torn-read hammer, a fetch pinned across a Reencrypt publish,
# the one-exchange-per-shard count and the shared pools' dial guard), and
# the root package's tests that drive the stack through serve
# (TestServeChaosReplicaKill). The allocation budgets hold only without
# -race (see internal/serve/race_test.go), so they also run once plainly.
# Then the row cache and warm-lookup benchmarks run once each, so they
# keep building and running. Last, the repository benchmark's serve
# workloads — both serve stacks, traced and untraced — run in smoke form
# against the plaintext oracle.
serve-check:
	$(GO) vet ./internal/serve
	$(GO) test -race -count=2 ./internal/serve
	$(GO) test -run 'Serve' -race .
	$(GO) test -run 'TestServeAllocBudgets' -count=1 ./internal/serve
	$(GO) test -run '^$$' -bench 'RowCache|LookupBagsWarm' -benchtime 1x ./internal/serve
	cd benchmark && $(GO) test -run 'TestSmoke/serve_' .

# The batch wire path's gate: vet, cluster and remote twice under the race
# detector (sub-batches sharing one SplitBatch arena, every shard's
# exchange started and finished by the calling goroutine, several frames
# pipelined on one connection and their replies decoded into reused
# connection buffers and folded into each table's slab), the joint
# exchange over real sockets (internal/integration's TestBatch*: replies
# cut mid-frame, hung shards, shared and crossed clients), and the root
# tests that pin its allocation budgets (the cluster batch's, and a local
# batch's), its answers under concurrent callers and the engine's shared
# transports. The budgets themselves hold only without -race (see
# race_test.go), so they also run once plainly. Last, the trusted side: the
# seed corpus of its oracle (pipelined batches equal per-request QueryCtx
# over the in-process NDP across the sizes where the pad walk fans out over
# workers), both shapes of the in-process batch walk around the planner's
# threshold (TestBatchPlannerBoundaryEquivalence: inline exchange below it,
# overlapped at and above it), and one iteration each of the Local unit-row
# batch benchmarks, the shape of a serving drain.
batch-check:
	$(GO) vet ./internal/cluster ./internal/remote ./internal/integration
	$(GO) test -race -count=2 ./internal/cluster/... ./internal/remote/...
	$(GO) test -race -count=2 -run 'TestBatch' ./internal/integration
	$(GO) test -run 'TestBatchCluster|TestSharedTransport' -race .
	$(GO) test -run 'TestBatchClusterAllocBudget|TestBatchLocalAllocBudget' -count=1 .
	$(GO) test -run '^FuzzBatchMatchesQueryCtx$$|^TestBatchPlannerBoundaryEquivalence$$' -count=1 ./internal/core
	$(GO) test -run '^$$' -bench 'FacadeQueryBatchUnitLocal' -benchtime 1x .

# The write path's gate: vet, then the encrypt, re-encrypt and sharding
# tests twice under the race detector (shards of one table encrypting
# concurrently into one memory, tables created and rotated while queries
# read), then the sharded-vs-serial differential fuzzer.
write-check:
	$(GO) vet ./internal/core ./internal/memory ./internal/otp
	$(GO) test -race -count=2 -run 'Encrypt|Reencrypt|Shard|WriteView' ./internal/core ./internal/memory .
	$(GO) test -run xxx -fuzz '^FuzzEncryptTableSharded$$' -fuzztime $(FUZZTIME) ./internal/core

# One parameterized bench entry point: `make bench` prints to stdout;
# `make bench BENCHOUT=file.txt` also tees the artifact; BENCHFLAGS
# overrides the selection (e.g. BENCHFLAGS='-bench OTPWeightedSum -benchmem').
BENCHFLAGS ?= -bench=. -benchmem
bench:
ifdef BENCHOUT
	$(GO) test $(BENCHFLAGS) ./... 2>&1 | tee $(BENCHOUT)
else
	$(GO) test $(BENCHFLAGS) ./...
endif

# The repository benchmark (benchmark/, BENCHMARK.json) is a nested module
# that `go test ./...` does not enter; it calls internal/core entry points
# by name, so build and test it against the tree.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The performance gates (gates_test.go, the one file that holds them):
# every timing and ratio bound, each a TestGate* over testing.Benchmark
# — the verified query's latency and allocations, tracing and disabled
# telemetry overhead, facade over core, cluster shards and replicas, the
# NDP gather's cold/warm ratio and the serving layer under load. About
# 20 s; -race and -short skip them.
gates:
	$(GO) test -run '^TestGate' -count=1 -v .

# Closed-loop serving load test: start secndp-dlrm on an in-process
# 2-shard cluster, drive it with secndp-loadgen, and tear down.
# Override with LOADUSERS / LOADDUR / LOADQPS (0 = saturation).
LOADUSERS ?= 32
LOADDUR ?= 10s
LOADQPS ?= 0
loadtest:
	$(GO) build -o /tmp/secndp-dlrm ./cmd/secndp-dlrm
	$(GO) build -o /tmp/secndp-loadgen ./cmd/secndp-loadgen
	/tmp/secndp-dlrm -addr 127.0.0.1:18080 -tables 4 -rows 4096 -shards 2 & \
	DLRM_PID=$$!; sleep 1; \
	/tmp/secndp-loadgen -target http://127.0.0.1:18080 -users $(LOADUSERS) \
		-rows 4096 -qps $(LOADQPS) -duration $(LOADDUR); \
	STATUS=$$?; kill $$DLRM_PID; exit $$STATUS

# Fuzz the wire-protocol parsers and the arithmetic kernels briefly (go
# fuzzing accepts exactly one target per invocation).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzSpanMatchesReadInto$$' -fuzztime $(FUZZTIME) ./internal/memory
	$(GO) test -run xxx -fuzz '^FuzzDotUint64$$' -fuzztime $(FUZZTIME) ./internal/field
	$(GO) test -run xxx -fuzz '^FuzzScaleAccum$$' -fuzztime $(FUZZTIME) ./internal/field
	$(GO) test -run xxx -fuzz '^FuzzScaleAccumBytes$$' -fuzztime $(FUZZTIME) ./internal/ring
	$(GO) test -run xxx -fuzz '^FuzzReadGeometry$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz '^FuzzReadQuery$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz '^FuzzClientResponse$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz '^FuzzServeOne$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz '^FuzzReadBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz '^FuzzReadBatchResponse$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz '^FuzzEncryptDecryptRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzVerifyRejectsTamper$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzQueryLinearity$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzEncryptTableSharded$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzBatchMatchesQueryCtx$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzShardSplit$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run xxx -fuzz '^FuzzReshardPlan$$' -fuzztime $(FUZZTIME) ./internal/cluster

# Run every example once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recommendation
	$(GO) run ./examples/medical
	$(GO) run ./examples/tamper
	$(GO) run ./examples/teecompare
	$(GO) run ./examples/remote
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/cluster

# Regenerate every paper table and figure (full scale; ~2 minutes).
experiments:
	$(GO) run ./cmd/secndp-bench

# Fast smoke of everything (~30 s).
quick:
	$(GO) run ./cmd/secndp-bench -quick

# The artifacts referenced by EXPERIMENTS.md.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(MAKE) bench BENCHOUT=bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
