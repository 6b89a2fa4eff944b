package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"secndp/internal/core"
	"secndp/internal/memory"
	"secndp/internal/telemetry"
)

// ReliableClient layers fault tolerance over the wire protocol: a
// reconnecting Pool (a connection poisoned by a transport failure is
// replaced by a health-checked redial), a RetryPolicy with exponential
// backoff and jitter for the idempotent operations, and a circuit Breaker
// that stops hammering a dead server and probes it back to life.
//
// It satisfies Transport (and so core.NDP), making it a
// drop-in replacement for a single *Client everywhere the trusted engine
// talks to an NDP. Errors surface typed: ErrRetriesExhausted when every
// attempt failed, ErrCircuitOpen when the breaker is rejecting calls, and
// server-reported semantic rejections verbatim (those are never retried —
// the server would answer identically). Safe for concurrent use.
type ReliableClient struct {
	pool    *Pool
	retry   RetryPolicy
	breaker *Breaker

	attempts atomic.Uint64
	retries  atomic.Uint64

	// Registry mirrors of the fault-tolerance counters: atomic so
	// Instrument may land while operations are in flight (a nil load is a
	// no-op). instrumentOnce makes Instrument idempotent so the facade may
	// auto-instrument on every Provision.
	instrumentOnce sync.Once
	mAttempts      atomic.Pointer[telemetry.Counter]
	mRetries       atomic.Pointer[telemetry.Counter]
}

// Instrument mirrors the client's attempt/retry counters, the pool's dial
// counter, and the breaker's open count and state gauge onto a telemetry
// registry, using the shared secndp_transport_*/secndp_breaker_* series.
// Idempotent; safe for concurrent use; a nil registry is a no-op.
func (rc *ReliableClient) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	rc.instrumentOnce.Do(func() {
		rc.mAttempts.Store(reg.Counter("secndp_transport_attempts_total",
			"Wire attempts by the fault-tolerant NDP transport, first tries included."))
		rc.mRetries.Store(reg.Counter("secndp_transport_retries_total",
			"Wire attempts beyond the first of each transport operation."))
		rc.pool.Instrument(reg.Counter("secndp_transport_dials_total",
			"Connection (re)dials by the reconnecting NDP pool."))
		rc.breaker.Instrument(
			reg.Counter("secndp_breaker_opens_total",
				"Circuit-breaker transitions to the open state."),
			reg.Gauge("secndp_breaker_state",
				"Circuit-breaker state: 0 closed, 1 half-open, 2 open."))
	})
}

// ReliableConfig bundles the fault-tolerance knobs. The zero value selects
// every documented default.
type ReliableConfig struct {
	Pool    PoolConfig
	Retry   RetryPolicy
	Breaker BreakerConfig
}

var _ Transport = (*ReliableClient)(nil)

// NewReliable builds the fault-tolerant client without touching the
// network; the first operation dials lazily (useful when the server comes
// up later than the client).
func NewReliable(addr string, cfg ReliableConfig) *ReliableClient {
	return &ReliableClient{
		pool:    NewPool(addr, cfg.Pool),
		retry:   cfg.Retry.withDefaults(),
		breaker: NewBreaker(cfg.Breaker),
	}
}

// DialReliable builds the fault-tolerant client and verifies the server is
// reachable with one health-checked connection (kept warm in the pool).
func DialReliable(ctx context.Context, addr string, cfg ReliableConfig) (*ReliableClient, error) {
	rc := NewReliable(addr, cfg)
	c, err := rc.pool.Get(ctx)
	if err != nil {
		rc.Close()
		return nil, err
	}
	rc.pool.Put(c)
	return rc, nil
}

// Close releases the pooled connections.
func (rc *ReliableClient) Close() error { return rc.pool.Close() }

// attempt runs fn over one pooled connection and settles it.
func (rc *ReliableClient) attempt(ctx context.Context, fn func(context.Context, *Client) error) error {
	c, err := rc.pool.Get(ctx)
	if err != nil {
		rc.breaker.Failure()
		return err
	}
	err = fn(ctx, c)
	rc.settle(c, err)
	return err
}

// settle ends one attempt on c with its outcome and settles the breaker:
// success and server-reported rejections return the connection to the
// pool (the stream is in sync) and count as breaker successes; transport
// failures, an abandoned exchange among them, poison and close it and
// count as breaker failures, as a cancelled attempt does.
func (rc *ReliableClient) settle(c *Client, err error) {
	if err == nil || isServerError(err) {
		rc.breaker.Success()
		rc.pool.Put(c)
		return
	}
	rc.breaker.Failure()
	c.Close()
}

// count records one wire attempt, the att-th of its operation.
func (rc *ReliableClient) count(att int) {
	rc.attempts.Add(1)
	rc.mAttempts.Load().Inc()
	if att > 1 {
		rc.retries.Add(1)
		rc.mRetries.Load().Inc()
	}
}

// do is the retry loop shared by every operation: per-attempt deadlines
// derived from the caller's context, exponential backoff with jitter
// between attempts, the circuit breaker consulted before each one.
func (rc *ReliableClient) do(ctx context.Context, op string, fn func(context.Context, *Client) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var last error
	for att := 1; att <= rc.retry.MaxAttempts; att++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rc.breaker.Allow(); err != nil {
			telemetry.SpanFromContext(ctx).Eventf(telemetry.EventBreakerOpen,
				"%s rejected by open circuit on attempt %d", op, att)
			if last != nil {
				return fmt.Errorf("remote: %s: %w after %d attempts: %w", op, ErrCircuitOpen, att-1, last)
			}
			return fmt.Errorf("remote: %s: %w", op, err)
		}
		rc.count(att)
		actx, cancel := rc.retry.attemptContext(ctx, att)
		err := rc.attempt(actx, fn)
		cancel()
		if err == nil {
			return nil
		}
		if isServerError(err) {
			return err // semantic rejection: retrying is pointless
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr // the caller's budget ran out, not the attempt's
		}
		last = err
		if errors.Is(err, ErrPoolClosed) {
			break
		}
		if att < rc.retry.MaxAttempts {
			if serr := sleepCtx(ctx, rc.retry.backoff(att)); serr != nil {
				return serr
			}
		}
	}
	return fmt.Errorf("remote: %s: %w after %d attempts: %w", op, ErrRetriesExhausted, rc.retry.MaxAttempts, last)
}

// WeightedSumElem implements core.NDP: the wire protocol has no element op
// (see Client), so it returns an error wrapping errors.ErrUnsupported
// without a wire attempt; engines with a TEE mirror serve element queries
// via local fallback instead.
func (rc *ReliableClient) WeightedSumElem(ctx context.Context, _ core.Geometry, _, _ []int, _ []uint64) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return 0, errNoElemOp
}

// WriteBlobContext provisions ciphertext with retry. Idempotent: a replay
// stores identical bytes at identical addresses.
func (rc *ReliableClient) WriteBlobContext(ctx context.Context, addr uint64, data []byte) error {
	return rc.do(ctx, "WriteBlob", func(ctx context.Context, c *Client) error {
		return c.WriteBlobContext(ctx, addr, data)
	})
}

// WriteECCContext provisions a side-band tag with retry (idempotent, as
// WriteBlobContext).
func (rc *ReliableClient) WriteECCContext(ctx context.Context, dataAddr uint64, tag []byte) error {
	if len(tag) != memory.TagBytes {
		// Validate before the retry loop: a malformed argument is permanent.
		return fmt.Errorf("remote: tag must be %d bytes", memory.TagBytes)
	}
	return rc.do(ctx, "WriteECC", func(ctx context.Context, c *Client) error {
		return c.WriteECCContext(ctx, dataAddr, tag)
	})
}

// WeightedTagSumBatch implements core.NDP with retry, reconnect, and
// breaker protection: each attempt is Client.WeightedTagSumBatch, a
// one-frame exchange of the kind StartBatches splits, on a pooled
// connection. Safe to retry: a pure read over ciphertext and tags.
func (rc *ReliableClient) WeightedTagSumBatch(ctx context.Context, geo core.Geometry, reqs []core.BatchRequest, verify bool) ([]core.NDPBatchResult, error) {
	var res []core.NDPBatchResult
	err := rc.do(ctx, "Batch", func(ctx context.Context, c *Client) error {
		var err error
		res, err = c.WeightedTagSumBatch(ctx, geo, reqs, verify)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// StartBatches is one wire attempt for several batches, split at the
// wire (see BatchCall): under the breaker it takes one pooled connection,
// arms it with the attempt's context, writes every frame and flushes
// once — one checkout and one attempt however many frames ride it. The
// call's Finish or Abort settles the connection and the breaker. There
// is no retry: a caller whose frames fail runs WeightedTagSumBatch for
// the retry loop.
func (rc *ReliableClient) StartBatches(ctx context.Context, frames []BatchFrame) (*BatchCall, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := rc.breaker.Allow(); err != nil {
		telemetry.SpanFromContext(ctx).Eventf(telemetry.EventBreakerOpen,
			"Batch rejected by open circuit on attempt 1")
		return nil, fmt.Errorf("remote: Batch: %w", err)
	}
	rc.count(1)
	actx, cancel := rc.retry.attemptContext(ctx, 1)
	c, err := rc.pool.Get(actx)
	if err != nil {
		cancel()
		rc.breaker.Failure()
		return nil, err
	}
	call, err := c.StartBatches(actx, frames)
	if err != nil {
		rc.settle(c, err)
		cancel()
		return nil, err
	}
	call.rc, call.cancel = rc, cancel
	return call, nil
}

// PingContext round-trips a no-op through the retry layer.
func (rc *ReliableClient) PingContext(ctx context.Context) error {
	return rc.do(ctx, "Ping", func(ctx context.Context, c *Client) error {
		return c.PingContext(ctx)
	})
}

// TransportStats is a snapshot of the fault-tolerance counters.
type TransportStats struct {
	// Attempts counts every wire attempt, first tries included.
	Attempts uint64
	// Retries counts attempts beyond the first of each operation.
	Retries uint64
	// Dials counts pool (re)dials.
	Dials uint64
	// BreakerOpens counts circuit-open transitions.
	BreakerOpens uint64
	// BreakerState is "closed", "open", or "half-open".
	BreakerState string
}

// Stats reports the client's cumulative fault-tolerance counters.
func (rc *ReliableClient) Stats() TransportStats {
	return TransportStats{
		Attempts:     rc.attempts.Load(),
		Retries:      rc.retries.Load(),
		Dials:        rc.pool.Dials(),
		BreakerOpens: rc.breaker.Opens(),
		BreakerState: rc.breaker.State(),
	}
}
