package secndp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"secndp/internal/cluster"
	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/remote"
)

// This file is the provisioning redesign: one Engine.CreateTable entry
// point over a pluggable Backend — local untrusted memory, or a sharded
// cluster of NDP servers, of which one remote server is the one-shard
// case.

// Backend selects where a table's ciphertext lives and which NDP serves
// its queries. The set of backends is closed (the interface has an
// unexported method): LocalBackend and ClusterBackend cover the two
// deployment shapes — RemoteBackend is ClusterBackend's one-shard case —
// and new shapes belong here rather than in callers — the facade must
// know how to provision, mirror, and route queries for each.
type Backend interface {
	createTable(ctx context.Context, e *Engine, spec TableSpec, rows [][]uint64) (*Table, error)
}

// LocalBackend stores ciphertext in an in-process untrusted memory and
// serves queries with an in-process NDP over it — the paper's
// single-memory-system shape, and the fastest path for tests and
// experiments. The memory is the adversary's: it can never serve as a
// trusted mirror, so WithFallback does not apply.
func LocalBackend(mem *Memory) Backend { return localBackend{mem: mem} }

type localBackend struct{ mem *Memory }

func (b localBackend) createTable(ctx context.Context, e *Engine, spec TableSpec, rows [][]uint64) (_ *Table, err error) {
	_, span := e.tel.startSpan(ctx, "create_table")
	defer func() { span.EndErr(err, classifyErr(err)) }()
	if b.mem == nil {
		return nil, errors.New("secndp: LocalBackend requires a memory space")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	geo, err := spec.geometry()
	if err != nil {
		return nil, err
	}
	region, v, err := e.allocRegion(spec)
	if err != nil {
		return nil, err
	}
	tab, err := e.scheme.EncryptTable(b.mem, geo, v, rows)
	if e.tel != nil {
		e.tel.encrypts.Inc()
	}
	if err != nil {
		e.versions.Release(region)
		return nil, err
	}
	return e.newTable(tab, &core.HonestNDP{Mem: b.mem}, region, nil), nil
}

// RemoteBackend encrypts locally and ships only ciphertext and tags to
// one remote NDP server — plaintext never crosses the wire. It is the
// one-shard ClusterBackend over the caller's transport: the server is the
// lone replica of the lone shard, so a Remote table provisions, queries,
// batches and degrades exactly as a cluster table does, sharing its
// exchanges with the engine's other off-process tables. With
// WithFallback, the TEE-side staging image is kept as a trusted mirror
// for graceful degradation; without it the table keeps no in-TEE copy of
// its ciphertext, so it cannot Reshard. The caller owns the transport (it
// is not closed by Table.Close); a ReliableNDP transport joins the
// engine's telemetry registry automatically.
func RemoteBackend(client NDPTransport) Backend {
	return &Cluster{shards: []ShardSpec{{Transport: client}}, mirrorOnly: true}
}

// ShardSpec names one cluster shard: either an address the engine dials
// itself (through the fault-tolerant transport, configured by
// WithTransport) or an already-connected transport supplied by the
// caller. Exactly one of the two must be set; see doc.go for the
// precedence rules.
type ShardSpec struct {
	// Addr is the shard server's address; the engine dials it with
	// DialReliableNDP and its WithTransport configuration. Every table of
	// the engine naming the same address shares that one transport — one
	// connection pool, one breaker — so their batches can share its
	// exchanges; the last table using it closes it at Table.Close.
	Addr string
	// Transport, when non-nil, is used instead of dialing Addr. The
	// caller keeps ownership: Table.Close does not close it.
	Transport NDPTransport
}

// ShardingStrategy selects how a cluster table's rows map onto shards.
type ShardingStrategy int

const (
	// ShardByRange assigns contiguous row blocks per shard (default):
	// one provisioning blob per shard, range locality preserved.
	ShardByRange ShardingStrategy = iota
	// ShardByHash spreads rows by a fixed hash of the row index,
	// load-balancing hot row sets across shards.
	ShardByHash
)

// ReplicaBalance selects how a replicated cluster spreads read load
// across each shard's healthy replicas (see Cluster.ReadBalance).
type ReplicaBalance int

const (
	// ReplicaSticky keeps a healthy shard on its preferred replica —
	// one warm connection per shard, the default.
	ReplicaSticky ReplicaBalance = iota
	// ReplicaRoundRobin rotates reads across healthy replicas, spreading
	// load (and connection-pool pressure) evenly.
	ReplicaRoundRobin
	// ReplicaLeastInflight routes each read to the healthy replica with
	// the fewest sub-operations in flight.
	ReplicaLeastInflight
)

// Cluster is the sharded multi-NDP backend, built by ClusterBackend.
type Cluster struct {
	shards   []ShardSpec
	strategy ShardingStrategy
	replicas int // 0 or 1: unreplicated
	balance  ReplicaBalance
	// mirrorOnly keeps the TEE staging image only as WithFallback's
	// mirror, not as a reshard source (RemoteBackend).
	mirrorOnly bool
}

// ClusterBackend shards a table's rows across several NDP servers and
// scatter-gathers queries over them: each query (or batch) is planned
// into per-shard sub-queries, the partial ciphertext sums return
// concurrently, and the gather re-adds them — by the scheme's linearity
// the result, its decryption, and its verification are byte-identical
// to a single NDP holding every row, with one aggregated tag check
// covering the whole gather. With Replicas, each shard is served by a
// failover group of servers holding identical ciphertext+tags, so
// losing a replica costs one retry, not a Degraded result. With
// WithFallback, a shard whose every replica failed has its partial
// recomputed from the TEE mirror and the result is marked Degraded
// instead of failing.
func ClusterBackend(shards ...ShardSpec) *Cluster {
	return &Cluster{shards: shards}
}

// Sharding selects the row→shard strategy (default ShardByRange). It
// returns the receiver for chaining:
//
//	secndp.ClusterBackend(shards...).Sharding(secndp.ShardByHash)
func (c *Cluster) Sharding(s ShardingStrategy) *Cluster {
	c.strategy = s
	return c
}

// Replicas declares that every shard is served by r servers provisioned
// with identical ciphertext+tags. The spec list is read shard-major:
// with shards s0r0, s0r1, s1r0, s1r1 and Replicas(2), the first two
// specs form shard 0's replica group and the next two shard 1's —
// matching the port order of `secndp-server -shards N -replicas R`.
// len(specs) must be a multiple of r. Queries try each shard's
// preferred replica first and fail over to a sibling on transport
// failure; because every replica holds the same ciphertext bytes, the
// failed-over partial is byte-identical and the result stays fully
// Verified and un-Degraded. r <= 1 means unreplicated. Returns the
// receiver for chaining.
func (c *Cluster) Replicas(r int) *Cluster {
	c.replicas = r
	return c
}

// ReadBalance selects the read load-balancing policy across each shard's
// healthy replicas (default ReplicaSticky). Every replica holds identical
// ciphertext+tags, so any policy's partials are byte-identical; balancing
// changes only which connections carry the load — round-robin or
// least-inflight spreads a hot shard's reads over R servers instead of
// hammering one. Failover semantics are unchanged. Returns the receiver
// for chaining:
//
//	secndp.ClusterBackend(specs...).Replicas(2).ReadBalance(secndp.ReplicaRoundRobin)
func (c *Cluster) ReadBalance(p ReplicaBalance) *Cluster {
	c.balance = p
	return c
}

// groupConfig resolves this backend's per-shard replica-group tuning.
func (c *Cluster) groupConfig() (cluster.GroupConfig, error) {
	var b cluster.Balance
	switch c.balance {
	case ReplicaSticky:
		b = cluster.BalanceSticky
	case ReplicaRoundRobin:
		b = cluster.BalanceRoundRobin
	case ReplicaLeastInflight:
		b = cluster.BalanceLeastInflight
	default:
		return cluster.GroupConfig{}, fmt.Errorf("secndp: unknown replica balance policy %d", int(c.balance))
	}
	return cluster.GroupConfig{Balance: b}, nil
}

// replicaCount resolves the per-shard replica count (>= 1).
func (c *Cluster) replicaCount() int {
	if c.replicas <= 1 {
		return 1
	}
	return c.replicas
}

// shardMap derives the row→shard map for this backend's spec list at
// the given epoch.
func (c *Cluster) shardMap(rows int, epoch uint64) (*cluster.Map, int, error) {
	var strat cluster.Strategy
	switch c.strategy {
	case ShardByRange:
		strat = cluster.RangeSharding
	case ShardByHash:
		strat = cluster.HashSharding
	default:
		return nil, 0, fmt.Errorf("secndp: unknown sharding strategy %d", int(c.strategy))
	}
	r := c.replicaCount()
	if len(c.shards) == 0 {
		return nil, 0, errors.New("secndp: ClusterBackend requires at least one shard")
	}
	if len(c.shards)%r != 0 {
		return nil, 0, fmt.Errorf("secndp: %d shard specs do not divide into replica groups of %d", len(c.shards), r)
	}
	smap, err := cluster.NewMap(rows, len(c.shards)/r, strat, epoch)
	return smap, r, err
}

func (c *Cluster) createTable(ctx context.Context, e *Engine, spec TableSpec, rows [][]uint64) (*Table, error) {
	ctx, span := e.tel.startSpan(ctx, "create_table")
	tbl, err := c.provision(ctx, e, spec, rows)
	if e.tel != nil {
		e.tel.provisions.Inc()
	}
	span.EndErr(err, classifyErr(err))
	return tbl, err
}

func (c *Cluster) provision(ctx context.Context, e *Engine, spec TableSpec, rows [][]uint64) (*Table, error) {
	geo, err := spec.geometry()
	if err != nil {
		return nil, err
	}
	smap, nReplicas, err := c.shardMap(spec.Rows, 1)
	if err != nil {
		return nil, err
	}

	// Connect every shard replica before touching the version manager: a
	// misconfigured ShardSpec should fail fast and leak nothing.
	transports, owned, err := e.dialShardSpecs(ctx, c.shards)
	if err != nil {
		return nil, err
	}
	closeOwned := func() {
		for _, cl := range owned {
			cl.Close()
		}
	}

	region, v, err := e.allocRegion(spec)
	if err != nil {
		closeOwned()
		return nil, err
	}
	fail := func(err error) (*Table, error) {
		e.versions.Release(region)
		closeOwned()
		return nil, err
	}

	// Encrypt once into TEE staging under the global geometry, then ship
	// each shard only its rows' ciphertext (and tags) at their global
	// addresses — to every replica of the shard, so any replica's partial
	// sums are byte-identical. Shards hold disjoint row subsets of one
	// table image; per-shard partials add back to the single-NDP answer
	// exactly.
	staging := NewMemory()
	tab, err := e.scheme.EncryptTable(staging, geo, v, rows)
	if err != nil {
		return fail(err)
	}
	if err := provisionShards(ctx, geo, staging, smap, transports, nReplicas); err != nil {
		return fail(err)
	}

	var mirror *Memory
	if e.cfg.fallbackVerifyN > 0 {
		mirror = staging
	}
	gcfg, err := c.groupConfig()
	if err != nil {
		return fail(err)
	}
	groups, err := buildReplicaGroups(transports, nReplicas, gcfg)
	if err != nil {
		return fail(err)
	}
	// The staging image is retained as the reshard source — a cluster
	// table must be able to stream moved rows without keeping the
	// plaintext around — unless the backend keeps it only as the mirror.
	// With WithFallback it doubles as the mirror.
	source := staging
	if c.mirrorOnly {
		source = mirror
	}
	cnd, err := cluster.NewReplicated(smap, groups, cluster.Options{Mirror: mirror, Source: source})
	if err != nil {
		return fail(err)
	}
	// A remote table's one shard is its transport, which reports through
	// the secndp_transport_* series; only a cluster table binds the
	// cluster series and /debug/cluster, so a remote table never rebinds
	// a cluster table's.
	if e.tel != nil && !c.mirrorOnly {
		cnd.Instrument(e.tel.reg)
		e.bindTransportGauges(transports, nReplicas)
		// Live inspection surface: /debug/cluster snapshots the serving
		// topology (epoch, replica health, breaker state, reshard
		// progress). Last-registered cluster table wins the name, matching
		// the gauge convention above.
		e.tel.reg.RegisterDebug("cluster", func() any { return cnd.DebugState() })
	}
	tbl := e.newTable(tab, cnd, region, mirror)
	tbl.cnd = cnd
	tbl.staging = source
	tbl.owned = owned
	return tbl, nil
}

// dialShardSpecs resolves a spec list into live transports: caller
// transports pass through (never owned), addresses resolve to the
// engine's shared transport for that address, dialed on first use with
// the engine's transport config; owned holds one reference per address
// spec, which the table drops at Close. Reliable transports join the
// engine's registry.
func (e *Engine) dialShardSpecs(ctx context.Context, specs []ShardSpec) ([]NDPTransport, []io.Closer, error) {
	transports := make([]NDPTransport, len(specs))
	var owned []io.Closer
	closeOwned := func() {
		for _, cl := range owned {
			cl.Close()
		}
	}
	for i, ss := range specs {
		if ss.Transport != nil {
			transports[i] = ss.Transport
		} else if ss.Addr != "" {
			ref, derr := e.acquireTransport(ctx, ss.Addr)
			if derr != nil {
				closeOwned()
				return nil, nil, fmt.Errorf("secndp: shard %d (%s): %w", i, ss.Addr, derr)
			}
			transports[i] = ref.st.rc
			owned = append(owned, ref)
		} else {
			closeOwned()
			return nil, nil, fmt.Errorf("secndp: shard %d: ShardSpec needs an Addr or a Transport", i)
		}
		if rc, ok := transports[i].(*remote.ReliableClient); ok && e.tel != nil {
			rc.Instrument(e.tel.reg)
		}
	}
	return transports, owned, nil
}

// sharedTransport is the engine's one reliable transport to a shard
// address, shared by every table (and reshard layout) naming it. refs
// is guarded by the engine's sharedMu.
type sharedTransport struct {
	addr string
	rc   *remote.ReliableClient
	refs int
}

// transportRef is one holder's reference to a shared transport; Close
// drops it, once.
type transportRef struct {
	e    *Engine
	st   *sharedTransport
	once sync.Once
}

func (r *transportRef) Close() error {
	r.once.Do(func() { r.e.releaseTransport(r.st) })
	return nil
}

// acquireTransport returns a reference to the engine's transport for
// addr, dialing it (outside the lock) when no table holds one.
func (e *Engine) acquireTransport(ctx context.Context, addr string) (*transportRef, error) {
	e.sharedMu.Lock()
	st := e.shared[addr]
	if st != nil {
		st.refs++
		e.sharedMu.Unlock()
		return &transportRef{e: e, st: st}, nil
	}
	e.sharedMu.Unlock()
	rc, err := remote.DialReliable(ctx, addr, e.transportConfig())
	if err != nil {
		return nil, err
	}
	e.sharedMu.Lock()
	defer e.sharedMu.Unlock()
	if st = e.shared[addr]; st != nil {
		// Another table dialed the address meanwhile: use its transport.
		rc.Close()
	} else {
		if e.shared == nil {
			e.shared = make(map[string]*sharedTransport)
		}
		st = &sharedTransport{addr: addr, rc: rc}
		e.shared[addr] = st
	}
	st.refs++
	return &transportRef{e: e, st: st}, nil
}

// releaseTransport drops one reference; the last closes the transport
// and drops the gauges bound to it.
func (e *Engine) releaseTransport(st *sharedTransport) {
	e.sharedMu.Lock()
	st.refs--
	last := st.refs == 0
	if last {
		delete(e.shared, st.addr)
		for p, rc := range e.gauges {
			if rc == st.rc {
				delete(e.gauges, p)
				for _, g := range transportGauges {
					e.tel.reg.DropGaugeFunc(p + g.name)
				}
			}
		}
	}
	e.sharedMu.Unlock()
	if last {
		st.rc.Close()
	}
}

// buildReplicaGroups folds a shard-major transport list (R consecutive
// specs per shard) into one failover group per shard, each tuned by cfg.
func buildReplicaGroups(transports []NDPTransport, nReplicas int, cfg cluster.GroupConfig) ([]*cluster.ReplicaGroup, error) {
	groups := make([]*cluster.ReplicaGroup, len(transports)/nReplicas)
	for s := range groups {
		reps := make([]core.NDP, nReplicas)
		for r := 0; r < nReplicas; r++ {
			reps[r] = transports[s*nReplicas+r]
		}
		g, err := cluster.NewGroup(s, reps, cfg)
		if err != nil {
			return nil, err
		}
		groups[s] = g
	}
	return groups, nil
}

// transportGauges are the per-(shard, replica) transport series, each
// read from the client's own atomics at snapshot time.
var transportGauges = []struct {
	name, help string
	read       func(remote.TransportStats) int64
}{
	{"attempts", "Wire attempts by shard %d replica %d's transport.",
		func(st remote.TransportStats) int64 { return int64(st.Attempts) }},
	{"retries", "Retried attempts by shard %d replica %d's transport.",
		func(st remote.TransportStats) int64 { return int64(st.Retries) }},
	{"dials", "Pool (re)dials by shard %d replica %d's transport.",
		func(st remote.TransportStats) int64 { return int64(st.Dials) }},
	{"breaker_opens", "Circuit-open transitions on shard %d replica %d's transport.",
		func(st remote.TransportStats) int64 { return int64(st.BreakerOpens) }},
	{"breaker_state", "Breaker state of shard %d replica %d's transport: 0 closed, 1 half-open, 2 open.",
		func(st remote.TransportStats) int64 {
			switch st.BreakerState {
			case "open":
				return 2
			case "half-open":
				return 1
			}
			return 0
		}},
}

// bindTransportGauges exports each (shard, replica) reliable transport's
// fault-tolerance counters as callback gauges
// (secndp_cluster_shard<s>_replica<r>_transport_*) — a flapping replica
// is visible in /metrics without any hot-path bookkeeping. A name
// already bound to the same transport is left alone, so tables sharing
// the engine's transports register each series once; binding it to
// another transport (a reshard's layout, a caller's transport) re-binds
// the series. The last table to drop a shared transport drops its series.
func (e *Engine) bindTransportGauges(transports []NDPTransport, nReplicas int) {
	e.sharedMu.Lock()
	defer e.sharedMu.Unlock()
	for i, tr := range transports {
		rc, ok := tr.(*remote.ReliableClient)
		if !ok {
			continue
		}
		s, r := i/nReplicas, i%nReplicas
		p := fmt.Sprintf("secndp_cluster_shard%d_replica%d_transport_", s, r)
		if e.gauges[p] == rc {
			continue
		}
		if e.gauges == nil {
			e.gauges = make(map[string]*remote.ReliableClient)
		}
		e.gauges[p] = rc
		for _, g := range transportGauges {
			read := g.read
			e.tel.reg.GaugeFunc(p+g.name, fmt.Sprintf(g.help, s, r),
				func() int64 { return read(rc.Stats()) })
		}
	}
}

// provisionShards ships each shard its owned rows, concurrently across
// shard replicas: per run of contiguous rows, one blob write of the
// data span (which includes co-located tags), plus the tag span for
// Ver-sep or per-row ECC writes for Ver-ECC (cluster.ShipRun).
// Everything lands at its global address, so shard memories are sparse
// windows of the one table image; every replica of a shard receives the
// identical bytes.
func provisionShards(ctx context.Context, geo core.Geometry, staging *memory.Space, smap *cluster.Map, transports []NDPTransport, nReplicas int) error {
	errs := make([]error, len(transports))
	var wg sync.WaitGroup
	for i := range transports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, run := range smap.Runs(i / nReplicas) {
				if err := cluster.ShipRun(ctx, geo, staging, run[0], run[1], transports[i]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("secndp: provisioning shard %d replica %d: %w", i/nReplicas, i%nReplicas, err)
		}
	}
	return nil
}

// Reshard migrates a cluster-backed table to a new shard layout live:
// the moved rows' ciphertext+tags stream from the table's TEE staging
// image to their new owner shards (all replicas) in rate-limited
// chunks while queries keep serving from the old layout, then the new
// topology is published atomically and the old epoch is drained —
// queries issued concurrently with Reshard return answers byte-identical
// to the pre-reshard table, and none is ever blocked for longer than
// one epoch drain. backend describes the new layout exactly as
// ClusterBackend does for CreateTable: shard-major specs, optional
// .Replicas(R) and .Sharding(...); the row count is the table's and the
// epoch bumps by one.
//
// Shards whose index is retained across the layouts must keep their
// servers (only moved rows are shipped); pointing a retained shard at a
// fresh empty server cannot corrupt results — missing rows fail the
// aggregated MAC check — but fails queries until re-provisioned. On
// success the table drops its references to the old layout's
// engine-dialed transports (a transport no table uses any more closes);
// caller-owned transports are never closed.
func (t *Table) Reshard(ctx context.Context, backend *Cluster) error {
	if t.cnd == nil {
		return errors.New("secndp: Reshard requires a cluster-backed table")
	}
	if backend == nil {
		return errors.New("secndp: Reshard requires a cluster backend")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	old := t.cnd.Map()
	newMap, nReplicas, err := backend.shardMap(old.NumRows(), old.Epoch()+1)
	if err != nil {
		return err
	}
	transports, owned, err := t.eng.dialShardSpecs(ctx, backend.shards)
	if err != nil {
		return err
	}
	closeAll := func(cs []io.Closer) {
		for _, c := range cs {
			c.Close()
		}
	}
	gcfg, err := backend.groupConfig()
	if err != nil {
		closeAll(owned)
		return err
	}
	groups, err := buildReplicaGroups(transports, nReplicas, gcfg)
	if err != nil {
		closeAll(owned)
		return err
	}
	// Root span for the migration: each shipped chunk becomes a child
	// span, so /debug/trace/{id} shows the whole copy phase.
	rctx, span := t.eng.tel.startSpan(ctx, "reshard")
	err = t.cnd.Reshard(rctx, t.state.Load().tab.Geometry(), newMap, groups, cluster.ReshardOptions{})
	span.EndErr(err, classifyErr(err))
	if err != nil {
		if t.cnd.Epoch() == newMap.Epoch() {
			// The flip happened but the drain was interrupted: the new
			// topology is live, so its transports must stay; the old ones
			// may still carry stale gathers and are retired at Close.
			t.owned = append(t.owned, owned...)
			return err
		}
		closeAll(owned)
		return err
	}
	if t.eng.tel != nil {
		t.eng.bindTransportGauges(transports, nReplicas)
	}
	// The old epoch drained inside Reshard: no gather still references
	// the old groups, so the table's references to their engine-dialed
	// transports can be dropped.
	closeAll(t.owned)
	t.owned = owned
	return nil
}

// CreateTable provisions one encrypted table through a backend: the
// plaintext rows are arithmetically encrypted (and tagged, per
// spec.Tags) under a freshly allocated version, placed where the
// backend dictates, and the returned Table routes queries to the
// backend's NDP — in-process, one remote server, or a scatter-gather
// cluster. The context bounds every transfer.
func (e *Engine) CreateTable(ctx context.Context, backend Backend, spec TableSpec, rows [][]uint64) (*Table, error) {
	if backend == nil {
		return nil, errors.New("secndp: nil backend")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return backend.createTable(ctx, e, spec, rows)
}

// transportConfig resolves the engine-level default TransportConfig
// (WithTransport), falling back to the zero-value defaults.
func (e *Engine) transportConfig() TransportConfig {
	if e.cfg.transport != nil {
		return *e.cfg.transport
	}
	return TransportConfig{}
}
