// Package serve is the multi-tenant embedding-serving layer over the
// secndp facade: many concurrent users issue multi-table embedding-bag
// lookups, and the service turns them into far fewer verified NDP
// operations than per-request fan-out would.
//
// Three mechanisms stack, in the order a lookup meets them:
//
//   - Admission control: a semaphore bounds the lookups in flight and a
//     bounded queue absorbs bursts; beyond both, the lookup is shed
//     immediately with ErrOverloaded (typed — callers branch with
//     errors.Is) instead of growing an unbounded queue until collapse.
//   - A hot-row result cache: decrypted, verified row vectors keyed by
//     (row, table epoch) — the epoch of the table state that answered
//     the fetch (secndp.Result.Epoch). DLRM traffic is Zipfian, so a
//     small cache absorbs most row references; entries are invalidated
//     by epoch comparison, so a Reencrypt or Reshard (which bump
//     Table.Epoch) can never serve pre-rotation plaintext, and a bag
//     never folds rows of two epochs: one whose fetched rows answered
//     at another epoch than its cache hits is fetched again whole. Each
//     table's cache is a
//     set-associative slot table reserved at AddTable, with rows copied
//     into storage the cache owns: a read takes no lock (each slot is a
//     seqlock), a write locks one 8-way set and evicts by CLOCK.
//   - Cross-user coalescing by group commit: cache-missing rows from
//     concurrent lookups merge into one drain, which goes to the facade
//     as one secndp.QueryBatches call with a batch per table. The batched
//     pipeline's cross-request dedup (DESIGN.md §8) amortizes pads
//     across users, not just within one caller. Every table that can
//     share NDP exchanges (every off-process table: a cluster, or a
//     remote table's one shard) drains through the service's one shared
//     coalescer, so the tables' sub-batches for one shard ride one
//     exchange; a LocalBackend table, with no exchange to share, drains
//     through a coalescer of its own. An idle
//     coalescer fetches at once; rows that arrive while a drain is on
//     the wire form the next drain, which leaves when the first returns
//     (or on its own goroutine once one table's share holds MaxBatch
//     rows).
//
// A coalescer's invariant is that while it has queued rows exactly one
// drainer is alive for it, running yield → take everything queued →
// fetch → wake. The drainer is first the lookup that found the
// coalescer idle: it runs that drain on its own goroutine once all its
// bags are enqueued, and hands rows that queued meanwhile, once, to a
// drain goroutine that loops until nothing is queued (Stats.Handoffs).
// A lookup on an idle service thus fetches with no goroutine hand-off
// of its own, and one whose context is canceled while it runs a drain
// returns when that drain does — other users' rows ride it. There is no
// window and no timer: the package reads the clock only to time its
// metrics. The yield (runtime.Gosched) before each take is what makes
// "backlog" mean every lookup runnable right now — without it a drainer
// takes its drain before the other runnable lookups have enqueued, a
// batch of one (serve_rotate, the drain-goroutine loop with / without
// the yield, two runs each: allocs_per_op 38 / 59, ops_per_s 50-53 k /
// 44-45 k, op_p50_us 237-244 / 233).
//
// The quantitative story: per-request fan-out pays one NDP exchange and
// one MAC verification per bag; the serving layer pays ~hit-rate nothing
// for cached rows and one exchange per coalesced batch for the rest. The
// root package's TestGateServeLoad (gates_test.go) measures the resulting
// saturation-QPS multiple.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/ring"
	"secndp/internal/telemetry"
)

// Typed serving errors; branch with errors.Is.
var (
	// ErrOverloaded: admission control shed the lookup — the in-flight
	// semaphore and the bounded wait queue were both full. Clients
	// should back off (HTTP servers map it to 503).
	ErrOverloaded = errors.New("serve: overloaded: admission queue full")
	// ErrUnknownTable: the bag names a table the service does not hold.
	ErrUnknownTable = errors.New("serve: unknown table")
	// ErrClosed: the service has been closed.
	ErrClosed = errors.New("serve: service closed")
)

// Config tunes a Service. The zero value selects the documented
// defaults.
type Config struct {
	// MaxBatch sends a coalescer's forming drain off on its own goroutine
	// as soon as one table's share of it holds this many distinct rows,
	// without waiting for the drain on the wire to return. <= 0 selects
	// 256.
	MaxBatch int
	// MaxInflight bounds the lookups admitted concurrently. <= 0
	// selects 256.
	MaxInflight int
	// MaxQueue bounds the lookups waiting for an admission slot beyond
	// MaxInflight; an arrival finding the queue full is shed with
	// ErrOverloaded. <= 0 selects 4*MaxInflight.
	MaxQueue int
	// CacheRows bounds each table's hot-row result cache (decrypted row
	// vectors). 0 selects 4096; negative disables the cache. AddTable
	// reserves the whole cache up front: CacheRows × cols × 8 bytes of
	// row storage per table (1 MiB at the default and 32 columns), plus
	// 32 bytes of slot metadata per row.
	CacheRows int
	// Registry receives serve-layer telemetry (secndp_serve_* series
	// and the /debug/serve source). nil disables.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.CacheRows == 0 {
		c.CacheRows = 4096
	}
	return c
}

// Bag is one embedding-bag lookup: result[j] = Σ_k Weights[k] ·
// T[Idx[k]][j] over the named table, reduced in the table's ring — the
// same weighted sum Table.Query computes, assembled here from cached and
// coalesced row fetches by the scheme's linearity. Weights nil means all
// ones (plain SparseLengthsSum pooling).
type Bag struct {
	Table   string
	Idx     []int
	Weights []uint64
}

// BagResult is one bag's pooled output.
type BagResult struct {
	// Values holds one element per table column.
	Values []uint64
	// Verified reports that every row contribution came from a verified
	// NDP fetch (directly or via the cache, which stores only the
	// verification status the fetch carried).
	Verified bool
	// Degraded reports that at least one row contribution was served
	// from the TEE mirror fallback rather than the NDP.
	Degraded bool
	// CacheHits counts the bag's row references served from the hot-row
	// cache.
	CacheHits int
}

// Service is the multi-tenant serving layer. Build with New, register
// tables with AddTable, then serve Lookup/LookupBags from any number of
// goroutines. Safe for concurrent use.
type Service struct {
	cfg Config
	adm *admission
	met *metrics
	// shared drains every table whose batches can share NDP exchanges
	// (secndp.Table.SharesExchanges); any other table has a coalescer of
	// its own.
	shared *coalescer

	// baseCtx outlives any single lookup: drains run under it so one
	// user's cancellation cannot abort a drain other users are waiting
	// on. Close cancels it.
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closed  atomic.Bool

	// tables maps serving names to tables. Lookups load it without a
	// lock; AddTable replaces it with an extended copy under mu.
	mu     sync.Mutex
	tables atomic.Pointer[map[string]*tableServe]
}

// tableServe is one table's serving state: the facade handle, its ring
// for TEE-side bag assembly, the hot-row cache, its coalescer and its
// share of that coalescer's state — the fetches pending for it and the
// rows it has queued in the forming drain, both guarded by the
// coalescer's mu.
type tableServe struct {
	name string
	tab  *secndp.Table
	ring ring.Ring
	cols int
	rows int

	co      *coalescer
	cache   *rowCache
	pending map[int]*rowFetch
	queued  []*rowFetch
}

// New builds a Service. Call Close when done: it cancels in-flight NDP
// work and waits for the drainers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		met:     newMetrics(cfg.Registry),
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.tables.Store(&map[string]*tableServe{})
	s.adm = newAdmission(cfg.MaxInflight, cfg.MaxQueue, s.met)
	s.shared = newCoalescer(s)
	if cfg.Registry != nil {
		cfg.Registry.GaugeFunc("secndp_serve_inflight", "lookups holding an admission slot", s.adm.inflightCount)
		cfg.Registry.GaugeFunc("secndp_serve_queue_depth", "lookups waiting for an admission slot", s.adm.queueDepth)
		cfg.Registry.RegisterDebug("serve", func() any { return s.debugState() })
	}
	return s
}

// AddTable registers a table under a serving name. Tables must be
// registered before traffic; re-registering a name is an error.
func (s *Service) AddTable(name string, tab *secndp.Table) error {
	if tab == nil {
		return fmt.Errorf("serve: AddTable(%q): nil table", name)
	}
	geo := tab.Geometry()
	rg, err := ring.New(geo.Params.We)
	if err != nil {
		return fmt.Errorf("serve: AddTable(%q): %w", name, err)
	}
	ts := &tableServe{
		name:    name,
		tab:     tab,
		ring:    rg,
		cols:    geo.Params.M,
		rows:    geo.Layout.NumRows,
		co:      s.shared,
		cache:   newRowCache(s.cfg.CacheRows, geo.Params.M, s.met),
		pending: make(map[int]*rowFetch),
	}
	if !tab.SharesExchanges() {
		ts.co = newCoalescer(s)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tables.Load()
	if _, dup := old[name]; dup {
		return fmt.Errorf("serve: table %q already registered", name)
	}
	tables := make(map[string]*tableServe, len(old)+1)
	for n, t := range old {
		tables[n] = t
	}
	tables[name] = ts
	s.tables.Store(&tables)
	return nil
}

// Tables lists the registered serving names.
func (s *Service) Tables() []string {
	tables := *s.tables.Load()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	return names
}

func (s *Service) table(name string) (*tableServe, error) {
	ts := (*s.tables.Load())[name]
	if ts == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return ts, nil
}

// Lookup serves one bag. Admission control applies; see LookupBags for
// the multi-bag form (one admission slot either way).
func (s *Service) Lookup(ctx context.Context, bag Bag) (BagResult, error) {
	res, err := s.LookupBags(ctx, []Bag{bag})
	if err != nil {
		return BagResult{}, err
	}
	return res[0], nil
}

// LookupBags serves one user request of several bags (typically one per
// sparse feature/table) under a single admission slot. Every bag is
// checked before any row is read or fetched. All bags' row misses are
// enqueued before any result is awaited, so a multi-table request's
// fetches ride one drain instead of running serially; a drain the lookup
// finds idle it runs itself. Results align with bags; the first failure
// aborts the request. A canceled ctx abandons the caller's wait, but not
// a drain the caller is running: other users' rows ride it, so the
// lookup returns ctx's error once that drain returns.
func (s *Service) LookupBags(ctx context.Context, bags []Bag) ([]BagResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if len(bags) == 0 {
		return nil, nil
	}
	start := time.Now()
	s.met.lookups.inc()
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.met.shed.inc()
		} else {
			s.met.lookupErrors.inc()
		}
		return nil, err
	}
	defer s.adm.release()

	// Phase 1: check every bag before touching a cache or a coalescer, so
	// a bad bag leaves no fetch queued for nobody and no claimed drain
	// unrun. The lookup's bookkeeping — its bags, one flat list of every
	// bag's missing rows, and the drains it claims — lives in this frame
	// up to the inline sizes and grows on the heap beyond them.
	var (
		pendBuf  [inlineBags]pendingBag
		fetchBuf [inlineBags * inlineRows]*rowFetch
		missWBuf [inlineBags * inlineRows]uint64
		claimBuf [inlineBags]*coalescer
	)
	pend, fetches, missW, claims := pendBuf[:], fetchBuf[:0], missWBuf[:0], claimBuf[:0]
	if len(bags) > len(pend) {
		pend = make([]pendingBag, len(bags))
	}
	pend = pend[:len(bags)]
	for i, bag := range bags {
		ts, err := s.checkBag(bag)
		if err != nil {
			s.met.lookupErrors.inc()
			return nil, fmt.Errorf("bag %d: %w", i, err)
		}
		pend[i].ts = ts
	}
	// Phase 2: per bag, fold cache hits into the accumulator and enqueue
	// the misses. No waiting yet — enqueue everything first so all
	// tables' fetches ride one drain or run side by side — then run the
	// drains this lookup found idle and claimed.
	for i, bag := range bags {
		fetches, missW, claims = s.startBag(&pend[i], pend[i].ts, bag, fetches, missW, claims)
	}
	if len(claims) > 0 {
		runClaims(claims)
		if err := ctx.Err(); err != nil {
			s.met.lookupErrors.inc()
			return nil, err
		}
	}
	// Phase 3: await the fetches and assemble. A bag whose rows answered
	// at two epochs — a rotation published while its fetch was queued —
	// starts over whole at the new epoch, running any drain it claims
	// before it waits again.
	out := make([]BagResult, len(bags))
	for i := range pend {
		pb := &pend[i]
		res, err := pb.wait(ctx, fetches[pb.lo:pb.hi], missW[pb.lo:pb.hi])
		for err == errMixedEpochs {
			fetches, missW, claims = s.startBag(pb, pb.ts, bags[i], fetches, missW, claims[:0])
			runClaims(claims)
			res, err = pb.wait(ctx, fetches[pb.lo:pb.hi], missW[pb.lo:pb.hi])
		}
		if err != nil {
			s.met.lookupErrors.inc()
			return nil, fmt.Errorf("bag %d: %w", i, err)
		}
		out[i] = res
	}
	s.met.observeLookup(time.Since(start))
	return out, nil
}

// Lookups at or below these sizes assemble without allocating their
// bookkeeping: every caller in the tree sends one bag per table (4) of 8
// rows.
const (
	inlineBags = 4
	inlineRows = 8
)

// pendingBag is a bag mid-assembly: cache hits already folded into
// res.Values, misses enqueued as rowFetches awaiting their drain.
type pendingBag struct {
	ts *tableServe
	// epoch is the table epoch the bag's cache hits were read at.
	epoch uint64
	// res.Values is the accumulator: integer sums mod 2^64 until wait
	// reduces them in the ring.
	res BagResult
	// over collects every bit the integer sum pushed out of a 64-bit
	// word (high product words, add carries); see fold.
	over uint64
	// The bag's misses are [lo, hi) of the lookup's fetch and weight lists.
	lo, hi int
}

// checkBag resolves the bag's table and checks its weights and rows.
func (s *Service) checkBag(bag Bag) (*tableServe, error) {
	ts, err := s.table(bag.Table)
	if err != nil {
		return nil, err
	}
	if bag.Weights != nil && len(bag.Weights) != len(bag.Idx) {
		return nil, fmt.Errorf("serve: table %q: %d weights for %d indices", bag.Table, len(bag.Weights), len(bag.Idx))
	}
	for _, row := range bag.Idx {
		if row < 0 || row >= ts.rows {
			return nil, fmt.Errorf("serve: table %q: row %d out of range [0,%d)", bag.Table, row, ts.rows)
		}
	}
	return ts, nil
}

// runClaims runs, on the calling lookup's goroutine, each drain the
// lookup claimed.
func runClaims(claims []*coalescer) {
	for _, co := range claims {
		co.runClaimed()
	}
}

// startBag folds a checked bag's cache hits and enqueues its misses into
// ts's coalescer, appending them (and their weights) to the lookup's
// lists, and the coalescer to claims if the lookup claimed its drain.
func (s *Service) startBag(pb *pendingBag, ts *tableServe, bag Bag, fetches []*rowFetch, missW []uint64, claims []*coalescer) ([]*rowFetch, []uint64, []*coalescer) {
	s.met.rowRefs.add(uint64(len(bag.Idx)))
	// The epoch is sampled before any cache read or fetch enqueue: hits
	// are read at exactly this epoch, and a fetch a rotation overtakes
	// answers at a newer one, which wait detects.
	epoch := ts.tab.Epoch()
	*pb = pendingBag{ts: ts, epoch: epoch, lo: len(fetches),
		res: BagResult{Values: make([]uint64, ts.cols), Verified: true}}
	var missBuf [inlineRows]int
	missRows := missBuf[:0]
	// A hit is copied out of the cache into scratch and folded from
	// there; only tables wider than the frame's scratch use the heap.
	var scratchBuf [64]uint64
	scratch := scratchBuf[:]
	if ts.cols > len(scratch) {
		scratch = make([]uint64, ts.cols)
	}
	var stale uint64
	for k, row := range bag.Idx {
		w := uint64(1)
		if bag.Weights != nil {
			w = bag.Weights[k]
		}
		e, r := ts.cache.get(row, epoch, scratch)
		if r == cacheHit {
			pb.res.CacheHits++
			pb.fold(w, e)
			continue
		}
		if r == cacheStale {
			stale++
		}
		missRows = append(missRows, row)
		missW = append(missW, w)
	}
	// The cache counters are shared by every core: add once per bag.
	if pb.res.CacheHits > 0 {
		s.met.cacheHits.add(uint64(pb.res.CacheHits))
	}
	if stale > 0 {
		s.met.cacheStale.add(stale)
	}
	if len(missRows) > 0 {
		s.met.cacheMisses.add(uint64(len(missRows)))
		var claimed bool
		if fetches, claimed = ts.co.enqueue(ts, fetches, missRows, epoch); claimed {
			claims = append(claims, ts.co)
		}
	}
	pb.hi = len(fetches)
	return fetches, missW, claims
}

// fold adds w times one row into the accumulator as integers mod 2^64,
// keeping in over whatever left the word, and carries the row's flags
// into the bag's. Both arms of a bag — cached rows and fetched rows —
// come through here.
func (pb *pendingBag) fold(w uint64, e rowEntry) {
	pb.res.Verified = pb.res.Verified && e.verified
	pb.res.Degraded = pb.res.Degraded || e.degraded
	acc, over := pb.res.Values[:len(e.vals)], pb.over
	for j, v := range e.vals {
		hi, lo := bits.Mul64(w, v)
		sum, carry := bits.Add64(acc[j], lo, 0)
		acc[j] = sum
		over |= hi | carry
	}
	pb.over = over
}

// errMixedEpochs reports a bag whose rows answered at two table epochs;
// LookupBags fetches it again whole.
var errMixedEpochs = errors.New("serve: bag rows answered at two epochs")

// wait blocks until every one of the bag's fetches lands (or ctx is
// done), folds the fetched rows in at their weights, and reduces in the
// ring. Every row must have answered at one epoch — the cache hits'
// when there were any — or the bag fails with errMixedEpochs.
func (pb *pendingBag) wait(ctx context.Context, fetches []*rowFetch, missW []uint64) (BagResult, error) {
	// Rows of one drain share its done channel: wait once per drain.
	var landed chan struct{}
	epoch, fixed := pb.epoch, pb.res.CacheHits > 0
	for _, rf := range fetches {
		if rf.done != landed {
			select {
			case <-rf.done:
			case <-ctx.Done():
				return BagResult{}, ctx.Err()
			}
			landed = rf.done
		}
		if rf.err != nil {
			return BagResult{}, fmt.Errorf("table %q row %d: %w", pb.ts.name, rf.row, rf.err)
		}
		if !fixed {
			epoch, fixed = rf.answered, true
		}
		if rf.answered != epoch {
			return BagResult{}, errMixedEpochs
		}
	}
	for i, rf := range fetches {
		pb.fold(missW[i], rf.rowEntry)
	}
	// Wrapping uint64 accumulation then one mask per column is exactly
	// reduction mod 2^we (2^we divides 2^64), matching the core engine's
	// ring arithmetic — the equivalence tests pin this byte-for-byte
	// against Table.Query.
	over, acc := pb.over, pb.res.Values
	for j, a := range acc {
		acc[j] = pb.ts.ring.Reduce(a)
		over |= a ^ acc[j]
	}
	// The rows were verified one by one at unit weight, so the weighted
	// sum itself never passed under a MAC. A direct Table.Query rejects a
	// sum that reaches 2^we — the checksum is over the integers, so a
	// wrapped ring sum cannot match its tag — and a Verified bag must
	// mean the same: fail it if any column's integer sum left the ring.
	// An Enc-only bag wraps, as Enc-only queries do.
	if pb.res.Verified && over != 0 {
		return BagResult{}, fmt.Errorf("serve: table %q: bag sum overflows the %d-bit ring: %w",
			pb.ts.name, pb.ts.ring.Width(), secndp.ErrVerification)
	}
	return pb.res, nil
}

// Close shuts the service down: new lookups fail with ErrClosed, drains
// on the wire or still queued fail fast on the canceled service context,
// and Close blocks until every drainer — a drain goroutine, or a lookup
// running a drain it claimed — is done. No flush is needed: queued rows
// always have a live drainer (the coalescer's invariant), so every
// waiter is woken.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.cancel()
	s.wg.Wait()
}
