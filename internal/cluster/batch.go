package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"secndp/internal/core"
	"secndp/internal/field"
	"secndp/internal/remote"
	"secndp/internal/ring"
	"secndp/internal/telemetry"
)

// BatchPart is one table's batch in a joint exchange (StartBatches): the
// NDP that answers it and what it must answer, then — once Finish has
// returned — the answer, as that NDP's WeightedTagSumBatch gives it.
type BatchPart struct {
	// Ctx is the part's own context: its trace span, fill flag, deadline
	// and cancellation. The parts of one joint exchange must share their
	// deadline and cancellation.
	Ctx    context.Context
	NDP    *NDP
	Geo    core.Geometry
	Reqs   []core.BatchRequest
	Verify bool

	Res []core.NDPBatchResult
	Err error
}

// Batches is a joint exchange in flight: several tables' batches whose
// per-shard sub-batches share one pooled exchange per transport.
// StartBatches puts every part on its way from the calling goroutine and
// returns; Finish reads every reply and settles every part. Between the
// two the caller is free — the facade runs every part's OTP sweep there.
// A started Batches must be closed, once, finished or not; it is pooled,
// so it must not be used after Close.
type Batches struct {
	parts    []BatchPart
	cps      []clusterPart // parallel to parts
	wires    []wire
	finished bool
	one      [1]BatchPart // StartBatch's part
	// The backing of every wire's frames and owners.
	frames []remote.BatchFrame
	owners []frameOwner
}

var batchesPool = sync.Pool{New: func() any { return new(Batches) }}

// clusterPart is a cluster part between its start and its finish: the
// topology it holds the drain gate of, its private fill flag, its
// per-shard sub-batches and their first attempts. The flag's context and
// a one-shard table's lone sub-batch live in the pooled part itself.
type clusterPart struct {
	n     *NDP
	top   *topology
	ctx   FlagContext // the part's context, carrying its private flag
	r     ring.Ring
	subs  []SubBatch
	calls []shardCall
	one   [1]SubBatch
	ident []int // one's Origin: 0, 1, 2, …
}

// shardCall is one sub-batch's first attempt with its shard span and
// clock. wire is the exchange carrying it (-1: none — an in-process
// replica answers whole at start); ended is set once its span has ended.
type shardCall struct {
	span  *telemetry.ActiveSpan
	start time.Time
	a     batchAttempt
	wire  int
	ended bool
}

// wire is one transport's exchange: every sub-batch whose first choice
// is that transport, pipelined on one connection.
type wire struct {
	t      wireStarter
	count  int
	frames []remote.BatchFrame
	owners []frameOwner
	call   *remote.BatchCall
}

// wireStarter is a transport whose exchange splits at the wire: a
// remote.Client, or a remote.ReliableClient on one of its pooled
// connections.
type wireStarter interface {
	StartBatches(ctx context.Context, frames []remote.BatchFrame) (*remote.BatchCall, error)
}

// lockOrder ranks a transport in the order wires start in. A bare
// client's started exchange holds it until the exchange finishes, so
// every caller takes bare clients in their LockOrder; a pooled exchange
// holds nothing another caller waits on.
func lockOrder(t wireStarter) uint64 {
	if c, ok := t.(*remote.Client); ok {
		return c.LockOrder()
	}
	return 0
}

// frameOwner names the (part, sub-batch) a frame belongs to.
type frameOwner struct{ part, sub int32 }

// StartBatches begins a joint exchange over parts, from the calling
// goroutine, with no goroutine per part or shard. Every part snapshots
// its topology and splits its batch by shard; the sub-batches are
// grouped by the transport their group's first-choice replica is, and
// each remote transport — a bare remote.Client or a
// remote.ReliableClient — gets one exchange carrying all of its frames,
// written and flushed before any reply is read. An in-process replica
// answers whole here. An exchange runs under its first frame's context:
// the parts' contexts share their deadline and cancellation with the
// caller's.
func StartBatches(parts []BatchPart) *Batches {
	b := batchesPool.Get().(*Batches)
	b.start(parts)
	return b
}

var _ core.BatchStarter = (*NDP)(nil)

// StartBatch implements core.BatchStarter for a one-shard table: its
// batch, split at the wire — put on its way here, on the calling
// goroutine, and read by the returned exchange's Await. A table of more
// than one shard declines (nil), so core hands its exchange to a
// goroutine instead: its transports' writes would run one after another
// ahead of the caller's pad sweep, and a verified 80-row query over two
// loopback shards read 5–15 % slower split than handed off (2 vCPUs).
func (n *NDP) StartBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) core.PendingBatch {
	if n.Map().NumShards() != 1 {
		return nil
	}
	b := batchesPool.Get().(*Batches)
	b.one[0] = BatchPart{Ctx: ctx, NDP: n, Geo: geo, Reqs: reqs, Verify: verify}
	b.start(b.one[:])
	return b
}

// Await finishes a one-part exchange (StartBatch) and returns its part's
// answer.
func (b *Batches) Await() ([]core.NDPBatchResult, error) {
	b.Finish()
	return b.parts[0].Res, b.parts[0].Err
}

func (b *Batches) start(parts []BatchPart) {
	b.parts = parts
	if cap(b.cps) < len(parts) {
		b.cps = make([]clusterPart, len(parts))
	}
	b.cps = b.cps[:len(parts)]
	subs := 0
	for i := range parts {
		b.cps[i].n = parts[i].NDP
		subs += b.startCluster(&b.cps[i], &parts[i])
	}
	if subs > 0 {
		b.startWires(subs)
	}
	// The replicas that answer whole do so once every exchange is on the
	// wire.
	for i := range b.cps {
		cp := &b.cps[i]
		for si := range cp.calls {
			if c := &cp.calls[si]; c.a.open && c.wire < 0 {
				g := cp.top.groups[cp.subs[si].Shard]
				p := &parts[i]
				var res []core.NDPBatchResult
				err := guarded("shard ndp", func() (err error) {
					res, err = g.answer(c.a.ctx, g.replicas[c.a.r], p.Geo, cp.subs[si].Reqs, p.Verify)
					return err
				})
				b.settle(i, si, res, err)
			}
		}
	}
}

// startCluster snapshots a cluster part's topology, splits its batch and
// opens every sub-batch's first attempt. It returns how many attempts
// opened on a wireStarter.
func (b *Batches) startCluster(cp *clusterPart, p *BatchPart) int {
	r, err := ring.New(p.Geo.Params.We)
	if err != nil {
		p.Err = err
		return 0
	}
	m := p.Geo.Params.M
	cp.r = r
	p.Res = make([]core.NDPBatchResult, len(p.Reqs))
	slab := make([]uint64, len(p.Reqs)*m)
	for i := range p.Res {
		p.Res[i].Sums = slab[i*m : (i+1)*m : (i+1)*m]
	}
	cp.top = cp.n.enter()
	cp.ctx.Reset(p.Ctx)
	cp.subs = cp.split(p.Reqs)
	if cap(cp.calls) < len(cp.subs) {
		cp.calls = make([]shardCall, len(cp.subs))
	}
	cp.calls = cp.calls[:len(cp.subs)]
	wired := 0
	for si := range cp.subs {
		c := &cp.calls[si]
		g := cp.top.groups[cp.subs[si].Shard]
		sctx, span := subSpan(&cp.ctx, "batch", g.shard)
		c.span, c.start, c.wire = span, time.Now(), -1
		c.a = g.beginBatch(sctx)
		if c.a.open {
			if _, ok := g.replicas[c.a.r].(wireStarter); ok {
				wired++
			}
		}
	}
	return wired
}

// split is SplitBatch, save for a one-shard table whose every request
// names a row: its lone sub-batch is the batch itself, carried in the
// pooled part.
func (cp *clusterPart) split(reqs []core.BatchRequest) []SubBatch {
	if cp.top.smap.NumShards() != 1 || slices.ContainsFunc(reqs, func(r core.BatchRequest) bool { return len(r.Idx) == 0 }) {
		return cp.top.smap.SplitBatch(reqs)
	}
	for i := len(cp.ident); i < len(reqs); i++ {
		cp.ident = append(cp.ident, i)
	}
	cp.one[0] = SubBatch{Reqs: reqs, Origin: cp.ident[:len(reqs):len(reqs)]}
	return cp.one[:]
}

// starter returns the transport carrying sub-batch si's open first
// attempt, if it splits at the wire.
func (cp *clusterPart) starter(si int) (wireStarter, bool) {
	c := &cp.calls[si]
	if !c.a.open {
		return nil, false
	}
	t, ok := cp.top.groups[cp.subs[si].Shard].replicas[c.a.r].(wireStarter)
	return t, ok
}

// wireOf returns the index of t's exchange, or -1.
func (b *Batches) wireOf(t wireStarter) int {
	for w := range b.wires {
		if b.wires[w].t == t {
			return w
		}
	}
	return -1
}

// startWires groups the open wire attempts by transport and starts one
// pipelined exchange per transport, in lockOrder. n is the number of
// such attempts.
func (b *Batches) startWires(n int) {
	if cap(b.wires) < n {
		b.wires = make([]wire, 0, n)
		b.frames = make([]remote.BatchFrame, n)
		b.owners = make([]frameOwner, n)
	}
	frames, owners := b.frames, b.owners
	// Pass 1: one exchange per transport, with its count, put in
	// lockOrder.
	for i := range b.cps {
		cp := &b.cps[i]
		for si := range cp.calls {
			t, ok := cp.starter(si)
			if !ok {
				continue
			}
			w := b.wireOf(t)
			if w < 0 {
				w = len(b.wires)
				b.wires = append(b.wires, wire{t: t})
			}
			b.wires[w].count++
		}
	}
	slices.SortFunc(b.wires, func(x, y wire) int { return cmp.Compare(lockOrder(x.t), lockOrder(y.t)) })
	// Pass 2: carve every exchange's frames out of one arena, and fill
	// them in part then shard order.
	off := 0
	for w := range b.wires {
		wr := &b.wires[w]
		wr.frames = frames[off : off : off+wr.count]
		wr.owners = owners[off : off : off+wr.count]
		off += wr.count
	}
	for i := range b.cps {
		cp := &b.cps[i]
		p := &b.parts[i]
		for si := range cp.calls {
			t, ok := cp.starter(si)
			if !ok {
				continue
			}
			c := &cp.calls[si]
			c.wire = b.wireOf(t)
			w := &b.wires[c.wire]
			w.frames = append(w.frames, remote.BatchFrame{Ctx: c.a.ctx, Geo: p.Geo, Reqs: cp.subs[si].Reqs, Verify: p.Verify})
			w.owners = append(w.owners, frameOwner{part: int32(i), sub: int32(si)})
		}
	}
	for w := range b.wires {
		wr := &b.wires[w]
		call, err := wr.t.StartBatches(wr.frames[0].Ctx, wr.frames)
		if err != nil {
			for _, o := range wr.owners {
				b.settle(int(o.part), int(o.sub), nil, err)
			}
			continue
		}
		wr.call = call
	}
}

// settle ends sub-batch si of part i's first attempt with its answer:
// folded into the part's slab on success; on failure the sub-batch is
// left to finishCluster's failover.
func (b *Batches) settle(i, si int, res []core.NDPBatchResult, err error) {
	cp := &b.cps[i]
	c := &cp.calls[si]
	g := cp.top.groups[cp.subs[si].Shard]
	if err == nil && len(res) != len(cp.subs[si].Reqs) {
		err = fmt.Errorf("cluster: shard %d answered %d of %d sub-requests", g.shard, len(res), len(cp.subs[si].Reqs))
	}
	g.endBatch(&c.a, err)
	c.ended = true
	if err != nil {
		// The shard's outcome is its failover's, recorded by scatter.
		c.span.EndErr(err, telemetry.ErrClassTransport)
		return
	}
	cp.fold(&b.parts[i], si, res)
	cp.top.observe(g.shard, time.Since(c.start), nil, cp.n.failures)
	c.span.End()
}

// fold adds one shard's answers into the part's slab: ring adds for the
// sums, field adds for the tags.
func (cp *clusterPart) fold(p *BatchPart, si int, res []core.NDPBatchResult) {
	sub := &cp.subs[si]
	m := p.Geo.Params.M
	out := p.Res
	for j := range res {
		oi := sub.Origin[j]
		switch {
		case out[oi].Err != nil:
		case res[j].Err != nil:
			out[oi] = core.NDPBatchResult{Err: fmt.Errorf("cluster: shard %d: %w", sub.Shard, res[j].Err)}
		case len(res[j].Sums) != m:
			out[oi] = core.NDPBatchResult{Err: fmt.Errorf("cluster: shard %d returned %d columns, want %d", sub.Shard, len(res[j].Sums), m)}
		default:
			cp.r.AddVec(out[oi].Sums, out[oi].Sums, res[j].Sums)
			if p.Verify {
				out[oi].Tag = field.Add(out[oi].Tag, res[j].Tag)
			}
		}
	}
}

// Finish reads every exchange's replies in order, folding each whole
// reply into its part; a frame whose reply fails — and every later frame
// of its exchange — has folded nothing and resumes its group's failover,
// then the mirror fill. It then
// settles every part: the drain gate is released, a part whose topology
// flipped meanwhile is re-issued whole, and the rest record their fills
// and topology epoch on their context's flag.
func (b *Batches) Finish() {
	for w := range b.wires {
		wr := &b.wires[w]
		call := wr.call
		if call == nil {
			continue
		}
		// Released by its own Finish, even on a panic: Close must not
		// abort it again.
		wr.call = nil
		handed := 0
		err := call.Finish(func(k int, res []core.NDPBatchResult, ferr error) {
			handed = k + 1
			o := wr.owners[k]
			b.settle(int(o.part), int(o.sub), res, ferr)
		})
		if err != nil {
			for _, o := range wr.owners[handed:] {
				b.settle(int(o.part), int(o.sub), nil, err)
			}
		}
	}
	for i := range b.cps {
		if b.cps[i].top != nil {
			b.finishCluster(i)
		}
	}
	b.finished = true
}

// finishCluster runs part i's failed sub-batches through scatter —
// resuming each group's failover after the attempt that failed, then the
// mirror fill — and settles the part's topology.
func (b *Batches) finishCluster(i int) {
	cp, p := &b.cps[i], &b.parts[i]
	n, top := cp.n, cp.top
	var failed []int
	for si := range cp.calls {
		c := &cp.calls[si]
		if c.a.err == nil {
			continue
		}
		if !c.ended {
			// The context ended before the attempt could open.
			c.span.EndErr(c.a.err, telemetry.ErrClassTransport)
			c.ended = true
		}
		failed = append(failed, si)
	}
	if len(failed) == 0 {
		n.noteGather()
	} else {
		res := make([][]core.NDPBatchResult, len(failed))
		// errs[k]: nil once shard k answered (a mirror fill counts);
		// otherwise its replicas' error, which a failed fill keeps.
		errs := make([]error, len(failed))
		err := n.scatter(&cp.ctx, top, "batch", len(failed), func(k int) int { return cp.subs[failed[k]].Shard },
			func(ctx context.Context, k int, nd core.NDP) (err error) {
				si := failed[k]
				if g, ok := nd.(*ReplicaGroup); ok {
					res[k], err = g.batch(ctx, &cp.calls[si].a, p.Geo, cp.subs[si].Reqs, p.Verify)
				} else {
					res[k], err = nd.WeightedTagSumBatch(ctx, p.Geo, cp.subs[si].Reqs, p.Verify)
				}
				if err == nil || errs[k] == nil {
					errs[k] = err
				}
				return err
			})
		if err != nil && ctxEnded(&cp.ctx) {
			p.Err = err
		} else {
			// A shard left failed — no mirror, or its fill failed — fails
			// only the requests with a row on it, with its replica group's
			// error (which names the shard); the others keep their folded
			// answers.
			for k, si := range failed {
				if errs[k] == nil {
					cp.fold(p, si, res[k])
					continue
				}
				for _, oi := range cp.subs[si].Origin {
					p.Res[oi] = core.NDPBatchResult{Err: errs[k]}
				}
			}
		}
	}
	cp.top = nil
	if !n.accept(p.Ctx, top, &cp.ctx.Flag) {
		if cerr := p.Ctx.Err(); cerr != nil {
			p.Res, p.Err = nil, cerr
			return
		}
		n.noteStale(p.Ctx, top)
		p.Res, p.Err = n.WeightedTagSumBatch(p.Ctx, p.Geo, p.Reqs, p.Verify)
		return
	}
	if p.Err != nil {
		p.Res = nil
	}
}

// ctxEnded reports whether ctx has ended: done, or past its deadline. A
// transport's socket deadline mirrors the context's and can fire a beat
// before ctx.Err() flips, failing a shard with the deadline's error.
func ctxEnded(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	dl, ok := ctx.Deadline()
	return ok && !time.Now().Before(dl)
}

// Close ends the exchange's life: it abandons whatever a panic left
// unfinished between StartBatches and Finish — open exchanges are
// aborted, open attempts end without a verdict, drain gates are released
// — and returns b to its pool.
func (b *Batches) Close() {
	if !b.finished {
		b.abort()
	}
	for i := range b.cps {
		cp := &b.cps[i]
		calls, ident, filled := cp.calls, cp.ident, cp.ctx.Flag.filled
		clear(calls)
		*cp = clusterPart{calls: calls[:0], ident: ident}
		cp.ctx.Flag.filled = filled
	}
	clear(b.wires)
	clear(b.frames)
	*b = Batches{cps: b.cps[:0], wires: b.wires[:0], frames: b.frames, owners: b.owners}
	batchesPool.Put(b)
}

// abort abandons an unfinished exchange.
func (b *Batches) abort() {
	for w := range b.wires {
		if call := b.wires[w].call; call != nil {
			call.Abort()
			b.wires[w].call = nil
		}
	}
	for i := range b.cps {
		cp := &b.cps[i]
		if cp.top == nil {
			continue
		}
		for si := range cp.calls {
			c := &cp.calls[si]
			cp.top.groups[cp.subs[si].Shard].abortBatch(&c.a)
			if !c.ended {
				c.span.EndErr(errBatchAborted, telemetry.ErrClassTransport)
			}
		}
		cp.n.gate.exit(cp.top.smap.Epoch())
		cp.top = nil
	}
}

// WeightedTagSumBatch implements core.NDP: a joint exchange of one part.
// The batch splits into per-shard sub-batches (each running the shard's
// own batch-plan dedup), the sub-batches ride one exchange per touched
// shard — with replica failover per sub-batch — and each original
// request's answer is the ring/field sum of its per-shard partials. A
// request whose rows all live on exhausted shards is filled from the
// mirror like any other partial; a request referencing no rows answers
// the empty sum (zero). A shard that fails with no mirror to fill from
// fails only the requests with a row on it, each with the shard's error.
// A returned error is batch-level — a bad geometry, or the context
// ended — and decides nothing: the core walk puts it on every request of
// the batch.
func (n *NDP) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	parts := [1]BatchPart{{Ctx: ctx, NDP: n, Geo: geo, Reqs: reqs, Verify: verify}}
	b := StartBatches(parts[:])
	defer b.Close()
	b.Finish()
	return parts[0].Res, parts[0].Err
}
