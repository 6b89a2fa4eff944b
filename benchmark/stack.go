package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/serve"
)

// stack is the system under test for one workload, built only through the
// entry points production callers use and left at engine and service
// defaults.
type stack struct {
	spec   *workloadSpec
	tables []table // epoch-0 plaintext, the oracle's copy
	tabs   []*secndp.Table
	svc    *serve.Service
	rot    *rotator
	closes []func()
}

const maxTables = 4

// tableRegion spaces tables sharing one NDP server's memory.
const tableRegion = 64 << 20

func tableName(t int) string { return fmt.Sprintf("t%d", t) }

// setUp builds the workload's stack from the seed and returns once one
// request has come back verified and correct — the span setup_s times.
// reg, when non-nil, is attached as the engine's and the service's
// telemetry registry (traced run only).
func setUp(ctx context.Context, seed int64, spec *workloadSpec, reg *secndp.Telemetry) (_ *stack, err error) {
	st := &stack{spec: spec, tables: genRows(seed, spec)}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()

	var opts []secndp.Option
	if reg != nil {
		opts = append(opts, secndp.WithTelemetry(reg))
	}
	eng, err := secndp.New(genKey(seed), opts...)
	if err != nil {
		return nil, err
	}

	var shards []secndp.ShardSpec
	var localMem *secndp.Memory
	if spec.Backend == backendCluster {
		for s := 0; s < spec.Shards; s++ {
			srv := secndp.NewServer(secndp.NewMemory())
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
			st.closes = append(st.closes, func() { srv.Close() })
			shards = append(shards, secndp.ShardSpec{Addr: addr})
		}
	} else {
		localMem = secndp.NewMemory()
	}
	var rows [][]uint64
	for t := 0; t < spec.Tables; t++ {
		rows = st.tables[t].rowsAtEpoch(rows, 0)
		var backend secndp.Backend = secndp.LocalBackend(localMem)
		if spec.Backend == backendCluster {
			backend = secndp.ClusterBackend(shards...)
		}
		tab, err := eng.CreateTable(ctx, backend, secndp.TableSpec{
			Name: tableName(t), Rows: spec.Rows, Cols: spec.Cols, ElemBits: elemBits,
			Tags: secndp.TagsSeparate, Base: secndp.DefaultBase + uint64(t)*tableRegion,
		}, rows)
		if err != nil {
			return nil, fmt.Errorf("table %d: %w", t, err)
		}
		st.closes = append(st.closes, tab.Close)
		st.tabs = append(st.tabs, tab)
	}
	if spec.Op == opLookup {
		st.svc = serve.New(serve.Config{Registry: reg})
		st.closes = append(st.closes, st.svc.Close)
		for t, tab := range st.tabs {
			if err := st.svc.AddTable(tableName(t), tab); err != nil {
				return nil, err
			}
		}
	}

	first, err := genRequests(seed, spec, st.tables, 1)
	if err != nil {
		return nil, err
	}
	if r := st.exec(ctx, &first[0]); r.err != nil {
		return nil, fmt.Errorf("first verified result: %w", r.err)
	}
	return st, nil
}

// Close tears the stack down in reverse build order and waits for the
// rotator, the service's flush goroutines and the servers to stop.
func (st *stack) Close() {
	if st.rot != nil {
		st.rot.Stop() // a failed rotation was reported when the load ended
	}
	for i := len(st.closes) - 1; i >= 0; i-- {
		st.closes[i]()
	}
	st.closes = nil
}

// opResult is one op's outcome. done is taken when the call returned,
// before the answer is checked, so checking never counts as latency.
type opResult struct {
	done    time.Time
	retries int
	mixed   bool // first answer mixed rows of two epochs (serve_rotate only)
	err     error
}

var (
	errWrongValue = errors.New("benchmark: result differs from the plaintext oracle")
	errUnverified = errors.New("benchmark: result not verified")
)

// epochs snapshots, per table, the content epoch the oracle may accept
// from (rotations completed) and the serving epoch a caller can see.
func (st *stack) epochs(content, serving *[maxTables]uint64) {
	if st.rot == nil {
		return
	}
	for t, tab := range st.tabs {
		content[t] = st.rot.done[t].Load()
		serving[t] = tab.Epoch()
	}
}

// exec runs one op the way a production caller would and checks it
// against the oracle. Around a rotation the caller follows
// Table.Reencrypt's advice — "quiesce or retry": a lookup that failed
// verification, or during which a table's Epoch moved, is retried. A
// lookup the service shed with serve.ErrOverloaded is retried after a
// back-off, as a caller told 503 + Retry-After would: on a starved host
// the open loop's backlog can outgrow the admission queue, and that must
// show as latency from the due time, not as a failed run.
func (st *stack) exec(ctx context.Context, req *request) opResult {
	var r opResult
	for sheds := 0; ; {
		var lo, seen [maxTables]uint64
		st.epochs(&lo, &seen)
		err := st.call(ctx, req, &lo, &r.done)
		if r.retries < maxRetries {
			if errors.Is(err, serve.ErrOverloaded) {
				sheds++
				r.retries++
				time.Sleep(shedBackoff(sheds))
				continue
			}
			if st.rot != nil && st.racedRotation(err, &seen) {
				if errors.Is(err, errWrongValue) {
					r.mixed = true
				}
				r.retries++
				time.Sleep(retryBackoff(r.retries))
				continue
			}
		}
		r.err = err
		return r
	}
}

// call makes the workload's one production call, stamps done when it
// returns, then checks every bag's answer.
func (st *stack) call(ctx context.Context, req *request, lo *[maxTables]uint64, done *time.Time) error {
	switch st.spec.Op {
	case opQuery:
		res, err := st.tabs[0].Query(ctx, req.q[0])
		*done = time.Now()
		if err != nil {
			return err
		}
		return st.check(&req.bags[0], res.Values, res.Verified, lo, true)
	case opQueryBatch:
		res, err := st.tabs[0].QueryBatch(ctx, req.q)
		*done = time.Now()
		if err != nil {
			return err
		}
		for i := range res {
			if err := st.check(&req.bags[i], res[i].Values, res[i].Verified, lo, true); err != nil {
				return err
			}
		}
		return nil
	default:
		res, err := st.svc.LookupBags(ctx, req.s)
		*done = time.Now()
		if err != nil {
			return err
		}
		for i := range res {
			if err := st.check(&req.bags[i], res[i].Values, res[i].Verified, lo, true); err != nil {
				return err
			}
		}
		return nil
	}
}

// racedRotation reports whether a production caller could tell the op
// overlapped a rotation: it failed verification, or a table's serving
// epoch moved while it ran.
func (st *stack) racedRotation(err error, seen *[maxTables]uint64) bool {
	if errors.Is(err, secndp.ErrVerification) {
		return true
	}
	for t, tab := range st.tabs {
		if tab.Epoch() != seen[t] {
			return true
		}
	}
	return false
}

func retryBackoff(attempt int) time.Duration {
	d := time.Duration(attempt) * 100 * time.Microsecond
	if d > 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	return d
}

// shedBackoff doubles from 100 µs to 50 ms: long enough that thousands of
// shed lookups retrying do not themselves load the service.
func shedBackoff(attempt int) time.Duration {
	return min(100*time.Microsecond<<min(attempt-1, 9), 50*time.Millisecond)
}

// contentRange is the span of content epochs an op sent when lo[table]
// rotations had completed may legitimately answer from.
func (st *stack) contentRange(table int, lo *[maxTables]uint64) (uint64, uint64) {
	if st.rot == nil {
		return 0, 0
	}
	return lo[table], st.rot.started[table].Load()
}

// check compares one bag's answer with the oracle: equal to the weighted
// sum at exactly one content epoch between the one completed at send and
// the one started by now.
func (st *stack) check(b *bag, got []uint64, verified bool, lo *[maxTables]uint64, wantVerified bool) error {
	from, to := st.contentRange(b.table, lo)
	if _, ok := b.matches(got, from, to); !ok {
		return errWrongValue
	}
	if verified != wantVerified {
		return errUnverified
	}
	return nil
}

// execUnverified is the Enc-only counterpart the verify ratio divides by:
// the same request with Request.Unverified set. The serve layer has no
// unverified mode, so on the lookup workloads both sides of the ratio are
// the facade fetch the coalescer issues (fetch), not LookupBags.
func (st *stack) execUnverified(ctx context.Context, req *request) error {
	var lo, seen [maxTables]uint64
	st.epochs(&lo, &seen)
	switch st.spec.Op {
	case opQuery:
		res, err := st.tabs[0].Query(ctx, req.qu[0])
		if err != nil {
			return err
		}
		return st.check(&req.bags[0], res.Values, res.Verified, &lo, false)
	case opQueryBatch:
		res, err := st.tabs[0].QueryBatch(ctx, req.qu)
		if err != nil {
			return err
		}
		for i := range res {
			if err := st.check(&req.bags[i], res[i].Values, res[i].Verified, &lo, false); err != nil {
				return err
			}
		}
		return nil
	}
	return st.fetch(ctx, req, false)
}

// fetch issues, per bag, the facade call the coalescer makes for that
// bag's rows when none is cached: QueryBatch of single-row unit-weight
// requests. Rotation can fail it exactly as it fails a lookup; it is
// retried the same way.
func (st *stack) fetch(ctx context.Context, req *request, verified bool) error {
	for i := range req.bags {
		unit := req.unit[i]
		if !verified {
			unit = req.unitU[i]
		}
		b := &req.bags[i]
		for attempt := 0; ; attempt++ {
			var lo, seen [maxTables]uint64
			st.epochs(&lo, &seen)
			res, err := st.tabs[b.table].QueryBatch(ctx, unit)
			from, to := st.contentRange(b.table, &lo)
			if err == nil {
				err = checkUnitRows(st.tables[b.table], unit, res, from, to, verified)
			}
			if err == nil {
				break
			}
			// An unverified read during the in-place rewrite returns bytes
			// of both versions with no error and no epoch move — Enc-only
			// has no integrity — so only the rotator's own bracket can tell.
			raced := st.racedRotation(err, &seen) || (!verified && errors.Is(err, errWrongValue) && to > from)
			if st.rot != nil && attempt < maxRetries && raced {
				time.Sleep(retryBackoff(attempt + 1))
				continue
			}
			return err
		}
	}
	return nil
}

// checkUnitRows checks a unit-shape fetch: every answer is one plaintext
// row, all at one content epoch in [lo, hi].
func checkUnitRows(tab table, unit []secndp.Request, res []secndp.Result, lo, hi uint64, verified bool) error {
	for e := lo; e <= hi; e++ {
		ok := true
		for k := range unit {
			for j, v := range tab.row(unit[k].Idx[0]) {
				if res[k].Values[j] != (uint64(v)+e)&(1<<elemBits-1) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			for k := range res {
				if res[k].Verified != verified {
					return errUnverified
				}
			}
			return nil
		}
	}
	return errWrongValue
}

// execPlain is the unprotected computation: the same weighted sums over
// plaintext rows in this process's memory.
func (st *stack) execPlain(req *request, dst []uint64) uint64 {
	var sink uint64
	for i := range req.bags {
		b := &req.bags[i]
		plainSum(dst, st.tables[b.table], b.idx, b.w)
		sink += dst[0]
	}
	return sink
}

// rotator re-encrypts one table per tick, round-robin, installing
// contents base+epoch. started/done bracket each table's rotation so the
// oracle knows which epochs an overlapping op may legitimately see.
type rotator struct {
	started, done [maxTables]atomic.Uint64
	rotations     atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	finished chan struct{}
	err      error // written before finished closes
}

func (st *stack) startRotator(ctx context.Context) {
	r := &rotator{stop: make(chan struct{}), finished: make(chan struct{})}
	st.rot = r
	go func() {
		defer close(r.finished)
		tick := time.NewTicker(st.spec.RotateEvery)
		defer tick.Stop()
		var next [][]uint64
		for t := 0; ; t = (t + 1) % len(st.tabs) {
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
			e := r.done[t].Load() + 1
			next = st.tables[t].rowsAtEpoch(next, e)
			r.started[t].Store(e)
			if err := st.tabs[t].Reencrypt(ctx, next); err != nil {
				r.err = fmt.Errorf("rotating table %d to epoch %d: %w", t, e, err)
				return
			}
			r.done[t].Store(e)
			r.rotations.Add(1)
		}
	}()
}

// Stop ends the rotator, waits for it, and reports whether a rotation
// failed; safe to call twice.
func (r *rotator) Stop() error {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.finished
	return r.err
}
