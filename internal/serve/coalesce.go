package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"secndp"
)

// coalescer merges concurrent users' cache-missing row fetches for one
// table into facade QueryBatch calls by group commit: an idle table
// fetches at once, and rows that arrive while a batch is on the wire
// form the next batch, which leaves the moment the first returns. Batch
// size follows load — 1 when idle, large at saturation — with no clock.
//
// Invariant: queued non-empty ⇒ exactly one drain goroutine is alive
// (running, under mu). Every waiter is therefore woken without a timer
// and without a flush on Close.
//
// A row requested while an identical (row, epoch) fetch is pending —
// queued or already on the wire — joins it instead of fetching again:
// this is the cross-user coalescing the per-request path cannot do. The
// coalescing factor (row references entering the coalescer per row
// actually fetched) is the layer's headline metric.
type coalescer struct {
	svc *Service
	ts  *tableServe

	mu      sync.Mutex
	pending map[int]*rowFetch
	queued  []*rowFetch   // the forming batch
	done    chan struct{} // the forming batch's channel; nil while queued is empty
	running bool          // a drain goroutine is alive

	// reqs is the drain goroutine's request framing, reused from batch to
	// batch: running admits one drain goroutine at a time and mu orders
	// one's exit before the next one's start.
	reqs []secndp.Request
}

// rowFetch is one distinct (row, epoch) fetch. done is its batch's
// channel, shared by every row of the batch; the fetching goroutine fills
// the result — the row as it goes into the cache, or err — before closing
// it (the close publishes them).
type rowFetch struct {
	row   int
	idx   [1]int // row again, as the Idx of its unit-weight request
	epoch uint64
	done  chan struct{}

	rowEntry
	err error
}

func newCoalescer(svc *Service, ts *tableServe) *coalescer {
	return &coalescer{svc: svc, ts: ts, pending: make(map[int]*rowFetch)}
}

// enqueue registers fetches for rows under one epoch and appends one
// rowFetch per input row to dst (duplicates within rows share a fetch).
// It never blocks on the NDP — batches run on the drain goroutine — so a
// multi-bag request can enqueue against every table before awaiting any.
func (co *coalescer) enqueue(dst []*rowFetch, rows []int, epoch uint64) []*rowFetch {
	co.mu.Lock()
	for _, row := range rows {
		if rf := co.pending[row]; rf != nil && rf.epoch == epoch {
			// Join the pending fetch — queued or already in flight; same
			// epoch means its result is exactly this request's row.
			co.svc.met.joins.inc()
			dst = append(dst, rf)
			continue
		}
		if co.done == nil {
			co.done = make(chan struct{})
		}
		rf := &rowFetch{row: row, idx: [1]int{row}, epoch: epoch, done: co.done}
		co.pending[row] = rf
		co.queued = append(co.queued, rf)
		dst = append(dst, rf)
		if len(co.queued) >= co.svc.cfg.MaxBatch {
			// Size trigger: a full batch leaves on its own goroutine rather
			// than queue behind the one on the wire, which also bounds how
			// far one-in-flight-per-table can throttle a slow NDP.
			co.svc.met.sizeFlushes.inc()
			batch, done := co.takeLocked()
			co.svc.wg.Add(1)
			go func() {
				defer co.svc.wg.Done()
				co.run(batch, done, nil)
			}()
		}
	}
	if len(co.queued) > 0 && !co.running {
		co.running = true
		co.svc.wg.Add(1)
		go co.drain()
	}
	co.mu.Unlock()
	return dst
}

// takeLocked detaches the forming batch.
func (co *coalescer) takeLocked() ([]*rowFetch, chan struct{}) {
	batch, done := co.queued, co.done
	co.queued, co.done = nil, nil
	return batch, done
}

// drain runs the table's batches one after another until none is queued.
// The yield is load-bearing: a freshly spawned goroutine sits in its
// spawner's runnext slot and would otherwise take its batch before any
// other already-runnable lookup has enqueued. Yielding sends it to the
// back of the run queue, so the batch is every lookup runnable right now;
// on an idle process it costs one scheduler pass.
func (co *coalescer) drain() {
	defer co.svc.wg.Done()
	for {
		runtime.Gosched()
		co.mu.Lock()
		batch, done := co.takeLocked()
		if len(batch) == 0 {
			co.running = false
			co.mu.Unlock()
			return
		}
		co.mu.Unlock()
		co.svc.met.windowFlushes.inc()
		co.reqs = co.run(batch, done, co.reqs[:0])
	}
}

// run executes one batch: every distinct row fetched as a unit-weight
// single-row request, so the facade's batched pipeline generates each
// row's pads once. Runs under the service context — one waiter's
// cancellation never aborts a batch other users share. reqs is framing
// scratch, returned for reuse.
func (co *coalescer) run(batch []*rowFetch, done chan struct{}, reqs []secndp.Request) []secndp.Request {
	start := time.Now()
	co.svc.met.batches.inc()
	co.svc.met.rowsFetched.add(uint64(len(batch)))
	for _, rf := range batch {
		reqs = append(reqs, secndp.Request{Idx: rf.idx[:], Weights: unitWeight})
	}
	res, err := co.ts.tab.QueryBatch(co.svc.baseCtx, reqs)
	for i, rf := range batch {
		if i < len(res) && res[i].Values != nil {
			rf.rowEntry = rowEntry{vals: res[i].Values, verified: res[i].Verified, degraded: res[i].Degraded}
			// Populate the cache before waking waiters so a hot row is
			// servable the instant its fetch lands. The cache copies the
			// row into its own slot, so an entry never pins this batch's
			// result slab. The entry is keyed under the epoch the fetch
			// was *enqueued* at: if the table rotated mid-fetch these
			// values are pre-rotation and must not be visible to
			// post-rotation epochs.
			co.ts.cache.put(rf.row, rf.epoch, rf.rowEntry)
		} else {
			cause := err
			if cause == nil {
				cause = errors.New("serve: batch result missing")
			}
			rf.err = fmt.Errorf("serve: fetch row %d: %w", rf.row, cause)
		}
	}
	close(done)
	co.svc.met.observeBatch(time.Since(start))
	// Retire the completed fetches from pending — unless a newer fetch
	// for the same row (different epoch) already replaced them — and
	// leave the emptied slice for the next forming batch.
	co.mu.Lock()
	for i, rf := range batch {
		if co.pending[rf.row] == rf {
			delete(co.pending, rf.row)
		}
		batch[i] = nil
	}
	if cap(co.queued) == 0 {
		co.queued = batch[:0]
	}
	co.mu.Unlock()
	return reqs
}

// unitWeight is every coalesced request's weight vector; never written.
var unitWeight = []uint64{1}
