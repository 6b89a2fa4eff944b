package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"secndp"
)

// coalescer merges concurrent users' cache-missing row fetches, for the
// tables it drains, into joint facade calls (secndp.QueryBatches) by
// group commit: an idle coalescer fetches at once, and rows that arrive
// while a drain is on the wire — for any of its tables — form the next
// drain, which leaves the moment the first returns. A drain carries each
// table's rows as that table's batch, and QueryBatches sends every
// table's sub-batch for one shard in one exchange, so a multi-table
// lookup costs one exchange per shard, not one per table and shard.
// Drain size follows load — 1 row when idle, large at saturation — with
// no clock.
//
// Who runs a drain: a lookup that finds the coalescer idle claims it
// (enqueue reports the claim) and, once every bag of the lookup is
// enqueued, runs that drain on its own goroutine (runClaimed: yield →
// take → fetch → wake). Rows that queued meanwhile are handed, once, to
// a drain goroutine that loops the same way until nothing is queued, so
// the lookup goes back to its own wait after one drain. An idle service
// therefore serves a lookup with no goroutine hand-off of its own, and
// no drain goroutine grows a fresh stack through QueryBatches: with the
// facade's pooled batch scratch beside it, serve_rotate's cpu_us_per_op
// went 131 → 108 µs (medians of sixteen 24 s pairs, 2 vCPUs).
//
// A Service drains every table that can share exchanges
// (secndp.Table.SharesExchanges: cluster tables) through one coalescer,
// and gives any other table — in-process, or one server — a coalescer of
// its own: its batch has no exchange to share, and one drain loop over
// several such tables makes every user wait on all of them, which cost
// serve_rotate's closed loop about a quarter of its lookups per second
// (still so with caller-run drains: 63.5 k → 46.5 k, three pairs).
//
// Invariant: rows queued ⇒ exactly one drainer is alive — the lookup
// that claimed the drain, or the drain goroutine (running, under mu).
// Every waiter is therefore woken without a timer and without a flush on
// Close.
//
// A row requested while an identical (table, row, epoch) fetch is
// pending — queued or already on the wire — joins it instead of fetching
// again: this is the cross-user coalescing the per-request path cannot
// do. The coalescing factor (row references entering the coalescer per
// row actually fetched) is the layer's headline metric.
type coalescer struct {
	svc *Service

	mu    sync.Mutex
	dirty []*tableServe // tables with rows in the forming drain, in first-row order
	done  chan struct{} // the forming drain's channel; nil while nothing is queued
	// running reports that a drainer is alive: a lookup that claimed the
	// drain, or the drain goroutine it handed the drain to.
	running bool

	// scratch is the drainer's, reused from drain to drain: running
	// admits one drainer at a time and mu orders one's exit (or hand-off)
	// before the next one's start.
	scratch drainScratch
}

// drainScratch is one drain's working set: the tables it fetches for,
// each table's fetches, and the facade framing of both.
type drainScratch struct {
	tabs    []*tableServe
	fetches [][]*rowFetch
	batches []secndp.TableBatch
	reqs    []secndp.Request
}

// rowFetch is one distinct (table, row, epoch) fetch. done is its
// drain's channel, shared by every row of the drain; the fetching
// goroutine fills the result — the row as it goes into the cache and the
// epoch that answered it, or err — before closing it (the close
// publishes them).
type rowFetch struct {
	row   int
	idx   [1]int // row again, as the Idx of its unit-weight request
	epoch uint64 // the epoch the fetch was enqueued under
	done  chan struct{}

	rowEntry
	answered uint64 // the serving epoch of the state that answered
	err      error
}

func newCoalescer(svc *Service) *coalescer { return &coalescer{svc: svc} }

// enqueue registers fetches for rows of ts under one epoch and appends
// one rowFetch per input row to dst (duplicates within rows share a
// fetch). It never blocks on the NDP, so a multi-bag request can enqueue
// against every table before awaiting any. claimed reports that the
// coalescer was idle and the caller is now its drainer: it must call
// runClaimed once, after its last enqueue and before it waits on any
// fetch.
func (co *coalescer) enqueue(ts *tableServe, dst []*rowFetch, rows []int, epoch uint64) (_ []*rowFetch, claimed bool) {
	co.mu.Lock()
	for _, row := range rows {
		if rf := ts.pending[row]; rf != nil && rf.epoch == epoch {
			// Join the pending fetch — queued or already in flight; same
			// epoch means it was asked for exactly this request's row.
			co.svc.met.joins.inc()
			dst = append(dst, rf)
			continue
		}
		if co.done == nil {
			co.done = make(chan struct{})
		}
		rf := &rowFetch{row: row, idx: [1]int{row}, epoch: epoch, done: co.done}
		ts.pending[row] = rf
		if len(ts.queued) == 0 {
			co.dirty = append(co.dirty, ts)
		}
		ts.queued = append(ts.queued, rf)
		dst = append(dst, rf)
		if len(ts.queued) >= co.svc.cfg.MaxBatch {
			// Size trigger: a drain with a full table batch leaves on its
			// own goroutine rather than queue behind the one on the wire,
			// which also bounds how far one drain in flight can throttle a
			// slow NDP.
			co.svc.met.sizeFlushes.inc()
			sc := new(drainScratch)
			done := co.takeLocked(sc)
			co.svc.wg.Add(1)
			go func() {
				defer co.svc.wg.Done()
				co.run(sc, done)
			}()
		}
	}
	if len(co.dirty) > 0 && !co.running {
		// The claim holds a count on the service's WaitGroup, as a drain
		// goroutine does, so Close waits for a drain a lookup runs too.
		co.running, claimed = true, true
		co.svc.wg.Add(1)
	}
	co.mu.Unlock()
	return dst, claimed
}

// takeLocked detaches the forming drain into sc and returns its channel.
func (co *coalescer) takeLocked(sc *drainScratch) chan struct{} {
	sc.tabs = append(sc.tabs[:0], co.dirty...)
	sc.fetches = sc.fetches[:0]
	for _, ts := range co.dirty {
		sc.fetches = append(sc.fetches, ts.queued)
		ts.queued = nil
	}
	clear(co.dirty)
	co.dirty = co.dirty[:0]
	done := co.done
	co.done = nil
	return done
}

// runClaimed runs the drain a lookup claimed, on the lookup's
// goroutine, then hands whatever queued meanwhile to a drain goroutine —
// once, passing on the claim's running flag and WaitGroup count — or, if
// nothing did, leaves the coalescer idle. A lookup whose context is
// canceled still runs its drain to the end: other users' rows ride it.
func (co *coalescer) runClaimed() {
	if co.step() {
		co.mu.Lock()
		if len(co.dirty) > 0 {
			co.mu.Unlock()
			co.svc.met.handoffs.inc()
			go co.drain()
			return
		}
		co.running = false
		co.mu.Unlock()
	}
	co.svc.wg.Done()
}

// drain is the drain goroutine: it runs the coalescer's drains one after
// another until none is queued.
func (co *coalescer) drain() {
	defer co.svc.wg.Done()
	for co.step() {
	}
}

// step yields, then takes everything queued and runs it as one drain. It
// reports false, with running cleared, when nothing was queued. The
// yield is load-bearing: the drainer would otherwise take its drain
// before any other already-runnable lookup has enqueued — a lookup that
// just enqueued, or a fresh drain goroutine in its spawner's runnext
// slot. Yielding sends it to the back of the run queue, so the drain is
// every lookup runnable right now; on an idle process it costs one
// scheduler pass.
func (co *coalescer) step() bool {
	runtime.Gosched()
	co.mu.Lock()
	if len(co.dirty) == 0 {
		co.running = false
		co.mu.Unlock()
		return false
	}
	done := co.takeLocked(&co.scratch)
	co.mu.Unlock()
	co.svc.met.windowFlushes.inc()
	co.run(&co.scratch, done)
	return true
}

// run executes one drain as one QueryBatches call: each table's distinct
// rows fetched as unit-weight single-row requests, so the facade's
// batched pipeline generates each row's pads once, and the tables'
// exchanges to one shard share one connection. Runs under the service
// context — one waiter's cancellation never aborts a drain other users
// share.
func (co *coalescer) run(sc *drainScratch, done chan struct{}) {
	start := time.Now()
	co.svc.met.batches.inc()
	reqs := sc.reqs[:0]
	for _, batch := range sc.fetches {
		for _, rf := range batch {
			reqs = append(reqs, secndp.Request{Idx: rf.idx[:], Weights: unitWeight})
		}
	}
	co.svc.met.rowsFetched.add(uint64(len(reqs)))
	batches, off := sc.batches[:0], 0
	for i, ts := range sc.tabs {
		n := len(sc.fetches[i])
		batches = append(batches, secndp.TableBatch{Table: ts.tab, Reqs: reqs[off : off+n : off+n]})
		off += n
	}
	secndp.QueryBatches(co.svc.baseCtx, batches)
	for i, ts := range sc.tabs {
		b := &batches[i]
		for j, rf := range sc.fetches[i] {
			if j < len(b.Results) && b.Results[j].Values != nil {
				res := &b.Results[j]
				rf.rowEntry = rowEntry{vals: res.Values, verified: res.Verified, degraded: res.Degraded}
				rf.answered = res.Epoch
				// Populate the cache before waking waiters so a hot row is
				// servable the instant its fetch lands. The cache copies the
				// row into its own slot, so an entry never pins this drain's
				// result slab. The entry is keyed under the epoch that
				// answered it, which a Reencrypt racing the fetch makes newer
				// than the one the fetch was enqueued under.
				ts.cache.put(rf.row, res.Epoch, rf.rowEntry)
			} else {
				cause := b.Err
				if cause == nil {
					cause = errors.New("serve: batch result missing")
				}
				rf.err = fmt.Errorf("serve: fetch row %d: %w", rf.row, cause)
			}
		}
		*b = secndp.TableBatch{}
	}
	close(done)
	co.svc.met.observeBatch(time.Since(start))
	// Retire the completed fetches from pending — unless a newer fetch
	// for the same row (different epoch) already replaced them — and
	// leave each emptied slice for its table's next forming batch.
	co.mu.Lock()
	for i, ts := range sc.tabs {
		batch := sc.fetches[i]
		for k, rf := range batch {
			if ts.pending[rf.row] == rf {
				delete(ts.pending, rf.row)
			}
			batch[k] = nil
		}
		if cap(ts.queued) == 0 {
			ts.queued = batch[:0]
		}
		sc.fetches[i] = nil
	}
	co.mu.Unlock()
	clear(sc.tabs)
	clear(reqs)
	sc.reqs, sc.batches = reqs[:0], batches[:0]
}

// unitWeight is every coalesced request's weight vector; never written.
var unitWeight = []uint64{1}
