package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"secndp"
	"secndp/internal/cluster"
	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/remote"
	"secndp/internal/ring"
	"secndp/internal/serve"
)

// The layer ladder: a sample of the workload's requests replayed, one
// caller at a time, through each layer's public entry point on the
// workload's geometry — serve, the secndp facade, core, cluster, remote,
// the in-process NDP, and the otp/field/ring kernels. Every rung is a real
// timed call recorded as a span whose parent is the rung that makes that
// call in production, so a layer's self time is its rung minus the rungs
// below it (trace.go). Like internal/perf, the ladder builds its own
// core.Scheme and tables; it shares nothing with the stack the load runs
// against except the generated rows and requests.

// ladderTable is one table of the workload seen at every layer.
type ladderTable struct {
	facade  *secndp.Table   // on the workload's backend
	core    *core.Table     // the ladder's own encryption of the same rows
	staging *memory.Space   // ciphertext image the core table was encrypted into
	honest  *core.HonestNDP // in-process NDP over staging
	cnd     *cluster.NDP    // scatter-gather over the ladder's shards; nil if never sharded
	ndp     core.NDP        // what a facade on the workload's backend hands core: cnd or honest
	geo     core.Geometry
}

type ladder struct {
	spec   *workloadSpec
	tables []table
	tabs   []ladderTable
	local0 *secndp.Table // table 0 on LocalBackend, for the single-query rungs and Reencrypt

	rtt     []*remote.ReliableClient // one per shard, used only by the remote rung
	svcMiss *serve.Service           // CacheRows:-1
	svcHit  *serve.Service           // defaults
	gen     *otp.Generator
	rec     *recorder
	obs     map[string][]float64
	closes  []func()
}

func (l *ladder) Close() {
	for i := len(l.closes) - 1; i >= 0; i-- {
		l.closes[i]()
	}
	l.closes = nil
}

func (l *ladder) observe(name string, v float64) { l.obs[name] = append(l.obs[name], v) }

// maxBlobBytes is internal/remote's cap on one provisioning blob. Range
// sharding ships each shard its rows as one blob, so a table needs at
// least bytes/maxBlobBytes shards to be provisioned at all.
const maxBlobBytes = 1 << 20

// ladderShards is the shard count of the ladder's loopback cluster: the
// workload's own, or four for the local workloads (whose cluster and
// remote rungs are measured beside the chain, not on it) — raised, if the
// table is too big for that, until every shard's blob fits.
func ladderShards(spec *workloadSpec) int {
	n := spec.Shards
	if n == 0 {
		n = 4
	}
	tableBytes := spec.Rows * spec.Cols * elemBits / 8
	if need := (tableBytes + maxBlobBytes - 1) / maxBlobBytes; need > n {
		n = need
	}
	return n
}

func listenShards(n int, closes *[]func()) ([]string, error) {
	addrs := make([]string, n)
	for s := range addrs {
		srv := secndp.NewServer(secndp.NewMemory())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("ladder shard %d: %w", s, err)
		}
		*closes = append(*closes, func() { srv.Close() })
		addrs[s] = addr
	}
	return addrs, nil
}

// newLadder builds the fixture and, on the way, times table creation on
// both backends and raw table encryption.
func newLadder(ctx context.Context, seed int64, spec *workloadSpec, tables []table, rec *recorder) (_ *ladder, err error) {
	l := &ladder{spec: spec, tables: tables, rec: rec, obs: map[string][]float64{}}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	key := genKey(seed)
	eng, err := secndp.New(key)
	if err != nil {
		return nil, err
	}
	scheme, err := core.NewScheme(key)
	if err != nil {
		return nil, err
	}
	l.gen = scheme.Generator()

	nShards := ladderShards(spec)
	facadeAddrs, err := listenShards(nShards, &l.closes)
	if err != nil {
		return nil, err
	}
	shardAddrs, err := listenShards(nShards, &l.closes)
	if err != nil {
		return nil, err
	}
	var facadeShards []secndp.ShardSpec
	for _, a := range facadeAddrs {
		facadeShards = append(facadeShards, secndp.ShardSpec{Addr: a})
	}
	dial := func(addr string) (*remote.ReliableClient, error) {
		rc, err := remote.DialReliable(ctx, addr, remote.ReliableConfig{})
		if err == nil {
			l.closes = append(l.closes, func() { rc.Close() })
		}
		return rc, err
	}
	var gather []*remote.ReliableClient
	for _, a := range shardAddrs {
		g, err := dial(a)
		if err != nil {
			return nil, err
		}
		r, err := dial(a)
		if err != nil {
			return nil, err
		}
		gather, l.rtt = append(gather, g), append(l.rtt, r)
	}

	localMem := secndp.NewMemory()
	create := func(name string, backend secndp.Backend, t int, rows [][]uint64) (*secndp.Table, float64, error) {
		t0 := time.Now()
		tab, err := eng.CreateTable(ctx, backend, secndp.TableSpec{
			Name: name, Rows: spec.Rows, Cols: spec.Cols, ElemBits: elemBits,
			Tags: secndp.TagsSeparate, Base: secndp.DefaultBase + uint64(t)*tableRegion,
		}, rows)
		if err != nil {
			return nil, 0, fmt.Errorf("ladder table %s: %w", name, err)
		}
		l.closes = append(l.closes, tab.Close)
		return tab, float64(time.Since(t0)) / float64(time.Millisecond), nil
	}

	var rows [][]uint64
	for t := range tables {
		rows = tables[t].rowsAtEpoch(rows, 0)
		lt := ladderTable{}
		sharded := spec.Backend == backendCluster
		if t == 0 {
			var ms float64
			if l.local0, ms, err = create("local0", secndp.LocalBackend(localMem), 0, rows); err != nil {
				return nil, err
			}
			l.observe("secndp.create_table_local_ms", ms)
			clustered, ms, err := create("cluster0", secndp.ClusterBackend(facadeShards...), 0, rows)
			if err != nil {
				return nil, err
			}
			l.observe("secndp.create_table_cluster_ms", ms)
			lt.facade = l.local0
			if sharded {
				lt.facade = clustered
			}
		} else if sharded {
			if lt.facade, _, err = create(tableName(t), secndp.ClusterBackend(facadeShards...), t, rows); err != nil {
				return nil, err
			}
		} else {
			// Local tables share one memory on the stack; here table 0's
			// already holds two images, so later tables get their own.
			if lt.facade, _, err = create(tableName(t), secndp.LocalBackend(secndp.NewMemory()), t, rows); err != nil {
				return nil, err
			}
		}

		lt.geo = lt.facade.Geometry()
		lt.staging = memory.NewSpace()
		t0 := time.Now()
		if lt.core, err = scheme.EncryptTable(lt.staging, lt.geo, uint64(t+1), rows); err != nil {
			return nil, fmt.Errorf("ladder core table %d: %w", t, err)
		}
		if t == 0 {
			mb := float64(spec.Rows*lt.geo.Layout.RowBytes) / 1e6
			l.observe("core.encrypt_table_mb_per_s", mb/time.Since(t0).Seconds())
		}
		lt.honest = &core.HonestNDP{Mem: lt.staging}
		lt.ndp = lt.honest
		if sharded || t == 0 {
			smap, err := cluster.NewMap(spec.Rows, nShards, cluster.RangeSharding, 1)
			if err != nil {
				return nil, err
			}
			shards := make([]core.NDP, nShards)
			for s, g := range gather {
				for _, run := range smap.Runs(s) {
					if err := cluster.ShipRun(ctx, lt.geo, lt.staging, run[0], run[1], g); err != nil {
						return nil, fmt.Errorf("ladder: shipping table %d to shard %d: %w", t, s, err)
					}
				}
				shards[s] = g
			}
			if lt.cnd, err = cluster.New(smap, shards, cluster.Options{Source: lt.staging}); err != nil {
				return nil, err
			}
			if sharded {
				lt.ndp = lt.cnd
			}
		}
		l.tabs = append(l.tabs, lt)
	}

	l.svcMiss = serve.New(serve.Config{CacheRows: -1})
	l.svcHit = serve.New(serve.Config{})
	l.closes = append(l.closes, l.svcMiss.Close, l.svcHit.Close)
	for t := range l.tabs {
		for _, svc := range []*serve.Service{l.svcMiss, l.svcHit} {
			if err := svc.AddTable(tableName(t), l.tabs[t].facade); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// rung is one timed call's record.
type rung struct {
	id uint64
	us float64
}

// call times f, records it as a span under parent, feeds its duration to
// metric (unless empty), and returns the rung.
func (l *ladder) call(parent, req uint64, name, layer string, overlapped bool, metric string, f func() error) (rung, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	if err != nil {
		return rung{}, fmt.Errorf("ladder rung %s: %w", name, err)
	}
	r := rung{id: l.rec.add(parent, req, name, layer, t0, t1, overlapped), us: us(t1.Sub(t0))}
	if metric != "" {
		l.observe(metric, r.us)
	}
	return r, nil
}

// when names a metric only if the rung is the one that feeds it.
func when(record bool, metric string) string {
	if record {
		return metric
	}
	return ""
}

// checkResult requires a verified facade result equal to the oracle.
func checkResult(res secndp.Result, want []uint64) error {
	if !res.Verified {
		return errUnverified
	}
	return sameValues(res.Values, want)
}

func sameValues(got, want []uint64) error {
	if len(got) != len(want) {
		return errWrongValue
	}
	for j := range want {
		if got[j] != want[j] {
			return errWrongValue
		}
	}
	return nil
}

func coreRequests(qs []secndp.Request) []core.BatchRequest {
	out := make([]core.BatchRequest, len(qs))
	for i, q := range qs {
		out[i] = core.BatchRequest{Idx: q.Idx, Weights: q.Weights}
	}
	return out
}

func rowRefs(reqs []core.BatchRequest) int {
	n := 0
	for _, r := range reqs {
		n += len(r.Idx)
	}
	return n
}

// kernels replays, under an NDP rung, the two kernels the NDP runs per
// row reference: the ring scale-accumulate over a ciphertext row and the
// field multiply-accumulate over its tag.
func (l *ladder) kernels(parent, req uint64, lt *ladderTable, refs int) error {
	row := lt.geo.Layout.ReadRow(lt.staging, 0)
	rg := ring.MustNew(elemBits)
	acc := make([]uint64, lt.geo.Params.M)
	if _, err := l.call(parent, req, "ring.ScaleAccumBytes", "ring", false, "", func() error {
		for k := 0; k < refs; k++ {
			rg.ScaleAccumBytes(acc, uint64(k)|1, row)
		}
		return nil
	}); err != nil {
		return err
	}
	elems := make([]field.Elem, refs)
	ws := make([]uint64, refs)
	for k := range elems {
		elems[k] = field.New(uint64(k)+1, uint64(k)*0x9E3779B97F4A7C15)
		ws[k] = uint64(k)%8 + 1
	}
	_, err := l.call(parent, req, "field.DotUint64", "field", false, "", func() error {
		runtime.KeepAlive(field.DotUint64(elems, ws))
		return nil
	})
	return err
}

// queryChain replays the single-query path for one bag on a local table:
// Table.Query -> core.QueryCtx -> {pad sum | tag-pad sum | NDP sum+tag,
// overlapped} -> decrypt and checksum.
func (l *ladder) queryChain(ctx context.Context, req uint64, r *request) error {
	b := &r.bags[0]
	lt := &l.tabs[0]
	var res secndp.Result
	root, err := l.call(0, req, "secndp.Query", "secndp", false, "secndp.query_us", func() (err error) {
		res, err = l.local0.Query(ctx, r.q[0])
		return err
	})
	if err != nil {
		return err
	}
	if err := checkResult(res, b.want); err != nil {
		return fmt.Errorf("ladder rung secndp.Query: %w", err)
	}
	l.observe("secndp.timing_pad_us", us(res.Timing.Pad))
	l.observe("secndp.timing_ndp_us", us(res.Timing.NDP))
	l.observe("secndp.timing_tag_us", us(res.Timing.Tag))
	l.observe("secndp.timing_verify_us", us(res.Timing.Verify))

	opts := core.QueryOptions{Verify: true}
	qc, err := l.call(root.id, req, "core.QueryCtx", "core", false, "core.query_ctx_us", func() error {
		vals, err := lt.core.QueryCtx(ctx, lt.honest, b.idx, b.w, opts)
		if err != nil {
			return err
		}
		return sameValues(vals, b.want)
	})
	if err != nil {
		return err
	}

	var eres, cres []uint64
	var eTag, cTag field.Elem
	if _, err := l.call(qc.id, req, "core.OTPWeightedSumCtx", "otp", true, "core.otp_sum_us", func() (err error) {
		eres, err = lt.core.OTPWeightedSumCtx(ctx, b.idx, b.w, opts)
		return err
	}); err != nil {
		return err
	}
	if _, err := l.call(qc.id, req, "core.TagPadSumCtx", "otp", true, "core.tag_pad_sum_us", func() (err error) {
		eTag, err = lt.core.TagPadSumCtx(ctx, b.idx, b.w, opts)
		return err
	}); err != nil {
		return err
	}
	var sumUs, tagUs float64
	half, err := l.call(qc.id, req, "ndp.WeightedSum+TagSum", "ndp", true, "", func() error {
		t0 := time.Now()
		cres = lt.honest.WeightedSum(lt.geo, b.idx, b.w)
		t1 := time.Now()
		cTag = lt.honest.TagSum(lt.geo, b.idx, b.w)
		sumUs, tagUs = us(t1.Sub(t0)), us(time.Since(t1))
		return nil
	})
	if err != nil {
		return err
	}
	l.observe("ndp.weighted_sum_us", sumUs)
	l.observe("ndp.tag_sum_us", tagUs)
	if err := l.kernels(half.id, req, lt, len(b.idx)); err != nil {
		return err
	}
	if _, err := l.call(qc.id, req, "core.Decrypt+Checksum", "field", false, "core.verify_us", func() error {
		vals := lt.core.Decrypt(cres, eres)
		if !lt.core.Checksum(vals).Equal(field.Add(cTag, eTag)) {
			return secndp.ErrVerification
		}
		return sameValues(vals, b.want)
	}); err != nil {
		return err
	}

	// Beside the chain: the unverified facade query and the fused core
	// path the facade does not call.
	if _, err := l.call(0, req, "secndp.Query(unverified)", "secndp", false, "secndp.query_unverified_us", func() error {
		res, err := l.local0.Query(ctx, r.qu[0])
		if err != nil {
			return err
		}
		return sameValues(res.Values, b.want)
	}); err != nil {
		return err
	}
	_, err = l.call(0, req, "core.QueryVerified", "core", false, "core.query_verified_us", func() error {
		vals, err := lt.core.QueryVerified(lt.honest, b.idx, b.w)
		if err != nil {
			return err
		}
		return sameValues(vals, b.want)
	})
	return err
}

// ndpSide replays what sits below core for one batch: on a sharded table
// the scatter-gather, then the largest shard's sub-batch over one
// connection to one server, then that sub-batch on the in-process NDP;
// otherwise the in-process NDP on the whole batch. With record set the
// rungs also feed the cluster/remote/ndp metrics.
func (l *ladder) ndpSide(ctx context.Context, parent, req uint64, lt *ladderTable, reqs []core.BatchRequest, sharded, record bool) error {
	sub := reqs
	ndpParent := parent
	var answered []core.NDPBatchResult // what the remote server said, when asked
	if sharded {
		g, err := l.call(parent, req, "cluster.WeightedTagSumBatch", "cluster", true, when(record, "cluster.batch_gather_us"), func() error {
			_, err := lt.cnd.WeightedTagSumBatch(ctx, lt.geo, reqs, true)
			return err
		})
		if err != nil {
			return err
		}
		subs := lt.cnd.Map().SplitBatch(reqs)
		largest, most, total := 0, 0, 0
		for i, sb := range subs {
			n := rowRefs(sb.Reqs)
			total += n
			if n > most {
				largest, most = i, n
			}
		}
		sub = subs[largest].Reqs
		rt, err := l.call(g.id, req, "remote.WeightedTagSumBatch", "remote", false, when(record, "remote.batch_rtt_us"), func() (err error) {
			answered, err = l.rtt[subs[largest].Shard].WeightedTagSumBatch(ctx, lt.geo, sub, true)
			return err
		})
		if err != nil {
			return err
		}
		ndpParent = rt.id
		if record {
			l.observe("cluster.shard_skew", float64(most)*float64(lt.cnd.Map().NumShards())/float64(total))
			l.observe("remote.wire_bytes_per_batch", float64(batchWireBytes(lt.geo, sub, answered)))
		}
	}
	var local []core.NDPBatchResult
	n, err := l.call(ndpParent, req, "ndp.WeightedTagSumBatch", "ndp", !sharded, when(record && sharded, "ndp.batch_us"), func() (err error) {
		local, err = lt.honest.WeightedTagSumBatch(ctx, lt.geo, sub, true)
		return err
	})
	if err != nil {
		return err
	}
	// The server holds the same ciphertext, so its answer is the
	// in-process NDP's answer, byte for byte.
	for i := range answered {
		if err := sameValues(answered[i].Sums, local[i].Sums); err != nil || !answered[i].Tag.Equal(local[i].Tag) {
			return fmt.Errorf("ladder: remote and in-process NDP disagree on sub-request %d", i)
		}
	}
	return l.kernels(n.id, req, lt, rowRefs(sub))
}

// batchChain replays the batch path for one table: Table.QueryBatch ->
// core.QueryBatchCtx with the NDP the workload's backend provides ->
// ndpSide. core's pad sweep overlaps the NDP exchange and has no public
// entry point, so it stays in core's self time.
func (l *ladder) batchChain(ctx context.Context, parent, req uint64, t int, qs []secndp.Request, check func([]secndp.Result) error, overlapped, record bool) error {
	lt := &l.tabs[t]
	reqs := coreRequests(qs)
	qb, err := l.call(parent, req, "secndp.QueryBatch", "secndp", overlapped, when(record, "secndp.query_batch_us"), func() error {
		res, err := lt.facade.QueryBatch(ctx, qs)
		if err != nil {
			return err
		}
		return check(res)
	})
	if err != nil {
		return err
	}
	sharded := lt.ndp != core.NDP(lt.honest)
	cb, err := l.call(qb.id, req, "core.QueryBatchCtx", "core", false, when(record && !sharded, "core.query_batch_ctx_us"), func() error {
		return core.FirstError(lt.core.QueryBatchCtx(ctx, lt.ndp, reqs, core.QueryOptions{Verify: true}))
	})
	if err != nil {
		return err
	}
	return l.ndpSide(ctx, cb.id, req, lt, reqs, sharded, record)
}

// batchShape is the QueryBatch-level input of the workload's op — the one
// bag, the whole batch, or the coalescer's unit-row fetch for bag 0 — and
// the check of its answer.
func (l *ladder) batchShape(r *request) ([]secndp.Request, func([]secndp.Result) error) {
	bags := r.bags
	switch l.spec.Op {
	case opQuery:
		bags = r.bags[:1]
	case opLookup:
		return r.unit[0], l.unitCheck(r, 0)
	}
	return r.q[:len(bags)], func(res []secndp.Result) error {
		for i := range res {
			if err := checkResult(res[i], bags[i].want); err != nil {
				return err
			}
		}
		return nil
	}
}

// unitCheck checks bag i's unit-row fetch against the plaintext rows.
func (l *ladder) unitCheck(r *request, i int) func([]secndp.Result) error {
	return func(res []secndp.Result) error {
		return checkUnitRows(l.tables[r.bags[i].table], r.unit[i], res, 0, 0, true)
	}
}

// rootName is the span that heads the workload's own chain.
func rootName(op opKind) string {
	switch op {
	case opQuery:
		return "secndp.Query"
	case opQueryBatch:
		return "secndp.QueryBatch"
	default:
		return "serve.LookupBags"
	}
}

// replay runs one sampled request down every rung.
func (l *ladder) replay(ctx context.Context, req uint64, r *request) error {
	if err := l.queryChain(ctx, req, r); err != nil {
		return err
	}

	// The serve rungs: the miss path (no cache, one caller: window wait
	// plus one coalesced fetch per table) heads the lookup workloads' chain.
	miss, err := l.call(0, req, "serve.LookupBags", "serve", false, "serve.miss_path_us", func() error {
		return checkBags(l.svcMiss.LookupBags(ctx, r.s))(r)
	})
	if err != nil {
		return err
	}
	if err := checkBags(l.svcHit.LookupBags(ctx, r.s))(r); err != nil {
		return fmt.Errorf("ladder: caching lookup: %w", err)
	}
	if _, err := l.call(0, req, "serve.LookupBags(cached)", "serve", false, "serve.hit_path_us", func() error {
		return checkBags(l.svcHit.LookupBags(ctx, r.s))(r)
	}); err != nil {
		return err
	}

	qs, check := l.batchShape(r)
	parent, overlapped := uint64(0), false
	if l.spec.Op == opLookup {
		parent, overlapped = miss.id, true
	}
	if err := l.batchChain(ctx, parent, req, 0, qs, check, overlapped, true); err != nil {
		return err
	}
	if l.spec.Op == opLookup {
		for i := 1; i < len(r.bags); i++ {
			if err := l.batchChain(ctx, miss.id, req, r.bags[i].table, r.unit[i], l.unitCheck(r, i), true, false); err != nil {
				return err
			}
		}
	}
	if _, err := l.call(0, req, "secndp.QueryBatch(unit)", "secndp", false, "secndp.query_batch_unit_us", func() error {
		res, err := l.tabs[0].facade.QueryBatch(ctx, r.unit[0])
		if err != nil {
			return err
		}
		return l.unitCheck(r, 0)(res)
	}); err != nil {
		return err
	}

	// Beside the chain on the workloads whose backend is local: core's
	// batch path on the in-process NDP is already the chain rung there,
	// and the cluster and remote rungs are measured on table 0's shards.
	lt := &l.tabs[0]
	reqs := coreRequests(qs)
	if lt.ndp == core.NDP(lt.honest) {
		return l.ndpSide(ctx, 0, req, lt, reqs, true, true)
	}
	_, err = l.call(0, req, "core.QueryBatchCtx(local)", "core", false, "core.query_batch_ctx_us", func() error {
		return core.FirstError(lt.core.QueryBatchCtx(ctx, lt.honest, reqs, core.QueryOptions{Verify: true}))
	})
	return err
}

// checkBags adapts a LookupBags result into a check against a request.
func checkBags(res []serve.BagResult, err error) func(*request) error {
	return func(r *request) error {
		if err != nil {
			return err
		}
		for i := range res {
			if err := sameValues(res[i].Values, r.bags[i].want); err != nil {
				return err
			}
			if !res[i].Verified {
				return errUnverified
			}
		}
		return nil
	}
}

// uvarintLen is the encoded size of v in the wire protocol's varints.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// batchWireBytes computes the request and reply payload of one opBatch
// exchange from internal/remote's frame layout (frame.go): op byte,
// geometry, flags, count, then per sub-request its indices and weights;
// the reply a status byte, then per sub-request a status, its sums and a
// 16-byte tag. Computed, not captured from the socket.
func batchWireBytes(geo core.Geometry, reqs []core.BatchRequest, res []core.NDPBatchResult) int {
	n := 1
	for _, v := range []uint64{
		uint64(geo.Layout.Placement), geo.Layout.Base, geo.Layout.TagBase,
		uint64(geo.Layout.NumRows), uint64(geo.Layout.RowBytes),
		uint64(geo.Params.We), uint64(geo.Params.M), uint64(geo.Params.ChecksumSubstrings),
	} {
		n += uvarintLen(v)
	}
	n += uvarintLen(1) + uvarintLen(uint64(len(reqs)))
	for _, r := range reqs {
		n += uvarintLen(uint64(len(r.Idx))) + uvarintLen(uint64(len(r.Weights)))
		for _, i := range r.Idx {
			n += uvarintLen(uint64(i))
		}
		for _, w := range r.Weights {
			n += uvarintLen(w)
		}
	}
	n++ // reply status
	for _, r := range res {
		n += 1 + uvarintLen(uint64(len(r.Sums))) + memory.TagBytes
		for _, v := range r.Sums {
			n += uvarintLen(v)
		}
	}
	return n
}

// mallocsPer is the whole-process allocation count per call of f.
func mallocsPer(n int, f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// counts measures the allocation and transport counters on the first
// sampled requests, after the timed replay so they disturb no timing.
func (l *ladder) counts(ctx context.Context, sample []request) error {
	const n = 32
	lt := &l.tabs[0]
	opts := core.QueryOptions{Verify: true}
	i := 0
	next := func() *request { i++; return &sample[i%len(sample)] }
	for name, f := range map[string]func() error{
		"core.allocs_per_query": func() error {
			b := &next().bags[0]
			_, err := lt.core.QueryCtx(ctx, lt.honest, b.idx, b.w, opts)
			return err
		},
		"core.allocs_per_batch": func() error {
			qs, _ := l.batchShape(next())
			return core.FirstError(lt.core.QueryBatchCtx(ctx, lt.honest, coreRequests(qs), opts))
		},
		"cluster.allocs_per_batch": func() error {
			qs, _ := l.batchShape(next())
			_, err := lt.cnd.WeightedTagSumBatch(ctx, lt.geo, coreRequests(qs), true)
			return err
		},
		"remote.allocs_per_rtt": func() error {
			qs, _ := l.batchShape(next())
			sub := lt.cnd.Map().SplitBatch(coreRequests(qs))[0]
			_, err := l.rtt[sub.Shard].WeightedTagSumBatch(ctx, lt.geo, sub.Reqs, true)
			return err
		},
	} {
		v, err := mallocsPer(n, f)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		l.observe(name, v)
	}
	return nil
}

// reencrypt times Table.Reencrypt with new contents on local table 0. It
// runs last: it changes what that table holds.
func (l *ladder) reencrypt(ctx context.Context) error {
	var rows [][]uint64
	for e := uint64(1); e <= 3; e++ {
		rows = l.tables[0].rowsAtEpoch(rows, e)
		t0 := time.Now()
		if err := l.local0.Reencrypt(ctx, rows); err != nil {
			return fmt.Errorf("ladder: reencrypt: %w", err)
		}
		l.observe("secndp.reencrypt_p50_ms", float64(time.Since(t0))/float64(time.Millisecond))
	}
	return nil
}

// kernelRates times the otp/field/ring kernels per row of the workload's
// geometry, over the rows the sampled requests name.
func (l *ladder) kernelRates(sample []request) {
	lt := &l.tabs[0]
	we := lt.geo.Params.We
	var addrs, weights []uint64
	for i := range sample {
		b := &sample[i].bags[0]
		for k, row := range b.idx {
			addrs = append(addrs, lt.geo.Layout.RowAddr(row))
			weights = append(weights, b.w[k])
		}
		if len(addrs) >= 1<<14 {
			break
		}
	}
	n := float64(len(addrs))
	acc := make([]uint64, lt.geo.Params.M)
	perRow := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	const version = 1
	for rep := 0; rep < 5; rep++ {
		l.observe("otp.pad_scale_accum_ns_per_row", perRow(func() {
			for k, a := range addrs {
				l.gen.PadScaleAccum(acc, weights[k], we, otp.DomainData, a, version)
			}
		}))
		tagPads := make([]byte, len(addrs)*otp.BlockBytes)
		l.observe("otp.pad_tag_scale_accum_ns_per_row", perRow(func() {
			l.gen.PadTagScaleAccum(acc, we, weights, addrs, version, tagPads)
		}))
		l.observe("otp.tag_pads_ns_per_row", perRow(func() { l.gen.TagPads(tagPads, addrs, version) }))

		const chunk, chunks = 4096, 2048
		buf := make([]byte, chunk)
		ks := l.gen.Keystream(otp.DomainData, lt.geo.Layout.Base, version)
		t0 := time.Now()
		for c := 0; c < chunks; c++ {
			ks.PadsInto(buf)
		}
		l.observe("otp.keystream_mb_per_s", float64(chunk*chunks)/1e6/time.Since(t0).Seconds())

		rng := rand.New(rand.NewSource(int64(rep)))
		elems := make([]field.Elem, len(addrs))
		for k := range elems {
			elems[k] = field.New(rng.Uint64()>>1, rng.Uint64())
		}
		l.observe("field.dot_uint64_ns_per_elem", perRow(func() { runtime.KeepAlive(field.DotUint64(elems, weights)) }))

		row := lt.geo.Layout.ReadRow(lt.staging, 0)
		rg := ring.MustNew(elemBits)
		l.observe("ring.scale_accum_bytes_ns_per_row", perRow(func() {
			for k := range addrs {
				rg.ScaleAccumBytes(acc, weights[k], row)
			}
		}))
	}
}

// run replays the sample until it is exhausted or the budget is spent
// (always at least minLadderRequests), then takes the counts, the kernel
// rates and the re-encryption timing.
func (l *ladder) run(ctx context.Context, sample []request, budget time.Duration) (int, error) {
	const minLadderRequests = 20
	deadline := time.Now().Add(budget)
	before := l.rttStats()
	n := 0
	for ; n < len(sample); n++ {
		if n >= minLadderRequests && time.Now().After(deadline) {
			break
		}
		if err := l.replay(ctx, uint64(n+1), &sample[n]); err != nil {
			return n, err
		}
		if _, err := l.call(0, uint64(n+1), "remote.PingContext", "remote", false, "remote.ping_rtt_us", func() error { return l.rtt[0].PingContext(ctx) }); err != nil {
			return n, err
		}
	}
	after := l.rttStats()
	if ops := float64(2 * n); ops > 0 { // one batch round trip and one ping per request
		l.observe("remote.attempts_per_op", float64(after.Attempts-before.Attempts)/ops)
	}
	l.observe("remote.retries", float64(after.Retries-before.Retries))

	if err := l.counts(ctx, sample); err != nil {
		return n, err
	}
	l.kernelRates(sample)
	return n, l.reencrypt(ctx)
}

func (l *ladder) rttStats() remote.TransportStats {
	var sum remote.TransportStats
	for _, c := range l.rtt {
		s := c.Stats()
		sum.Attempts += s.Attempts
		sum.Retries += s.Retries
	}
	return sum
}
