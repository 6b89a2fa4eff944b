package remote

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// ErrRetriesExhausted is returned (wrapped, with the attempt count and the
// last transport error) when every attempt permitted by a RetryPolicy has
// failed. Branch with errors.Is.
var ErrRetriesExhausted = errors.New("remote: retries exhausted")

// RetryPolicy governs re-execution of failed transport calls. Every wire
// operation is idempotent — opBatch and Ping are pure reads, and the
// provisioning writes store identical bytes at identical addresses — so
// retrying after an ambiguous failure (a timeout whose request may or may
// not have executed) is always safe.
//
// Server-reported rejections (statusErr) are semantic, not transport,
// failures: a retry would be answered identically, so they are returned
// immediately without consuming attempts. The zero value selects the
// defaults documented per field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first call included.
	// <= 0 selects 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff between attempts.
	// <= 0 selects 5ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. <= 0 selects 500ms.
	MaxDelay time.Duration
	// Multiplier grows the delay between consecutive attempts.
	// <= 1 selects 2.
	Multiplier float64
	// Jitter is the fraction of each delay randomized away ([0,1]), so a
	// fleet of clients does not hammer a recovering server in lockstep.
	// 0 selects 0.5; negative disables jitter.
	Jitter float64
	// PerAttemptTimeout bounds one attempt. Zero derives the bound from
	// the caller's context instead: the remaining deadline budget split
	// evenly across the attempts not yet used (so one hung attempt cannot
	// eat the whole budget). With no caller deadline either, attempts are
	// unbounded.
	PerAttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	} else if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// backoff returns the sleep before the attempt following 1-based attempt.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d -= d * p.Jitter * rand.Float64()
	}
	return time.Duration(d)
}

// attemptContext derives one attempt's context from the caller's:
// PerAttemptTimeout when set, else an even split of the remaining deadline
// budget over the remaining attempts, else the caller's context unchanged,
// with a no-op cancel.
func (p RetryPolicy) attemptContext(ctx context.Context, attempt int) (context.Context, context.CancelFunc) {
	if p.PerAttemptTimeout > 0 {
		return context.WithTimeout(ctx, p.PerAttemptTimeout)
	}
	if dl, ok := ctx.Deadline(); ok {
		left := p.MaxAttempts - attempt + 1
		if left < 1 {
			left = 1
		}
		if slice := time.Until(dl) / time.Duration(left); slice > 0 {
			return context.WithTimeout(ctx, slice)
		}
	}
	return ctx, func() {}
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
