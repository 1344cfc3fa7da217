// Package retry is the client-side half of the serving layer's overload
// contract: a jittered exponential-backoff loop that honors server
// Retry-After hints, so clients shed by admission control (503 +
// Retry-After) back off instead of hammering an overloaded server into
// collapse. It is also reusable for transient in-process faults —
// featcache failures are not cached, and compressor faults are isolated
// per buffer, so both are natural retry candidates.
//
// Classification: every error is retried by default except those marked
// Permanent and context cancellation of the loop's own context. A server
// (or any failing layer) can attach a minimum wait with WithRetryAfter;
// the next backoff delay is then at least that hint.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/crestlab/crest/internal/crerr"
)

// multiplier grows the backoff delay between attempts.
const multiplier = 2

// Policy configures the backoff loop. The zero value is usable and picks
// the defaults documented per field.
type Policy struct {
	// MaxAttempts bounds the total number of tries (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps every delay, hint or not (default 5s).
	MaxDelay time.Duration
	// Jitter is the symmetric relative jitter applied to each delay:
	// d → d·(1 + Jitter·u), u uniform in [−1, 1) (default 0.2; negative
	// disables). Jitter decorrelates clients that shed at the same
	// instant, so they do not retry in lockstep.
	Jitter float64
	// Seed drives the deterministic jitter stream (tests); 0 seeds from
	// the clock.
	Seed int64
	// Sleep is the context-aware delay function, injectable for tests;
	// nil selects a timer-based default.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	if p.Sleep == nil {
		p.Sleep = sleep
	}
	return p
}

func sleep(ctx context.Context, d time.Duration) error {
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

// Do runs op until it succeeds, returns a permanent error, the context is
// done, or MaxAttempts is exhausted. The returned error is the last
// attempt's, annotated with the attempt count; when the loop stops on
// cancellation it matches crerr.ErrCanceled (and the context sentinel).
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	delay := p.BaseDelay
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return crerr.Canceled(err)
		}
		last = op(ctx)
		if last == nil {
			return nil
		}
		if errors.Is(last, context.Canceled) || errors.Is(last, context.DeadlineExceeded) {
			if ctx.Err() != nil {
				// The loop's own context died; do not mask it as a
				// retryable op failure.
				return crerr.Canceled(ctx.Err())
			}
		}
		var pe *permanentError
		if errors.As(last, &pe) {
			return fmt.Errorf("retry: permanent after %d attempt(s): %w", attempt, pe.err)
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("retry: %d attempt(s) exhausted: %w", attempt, last)
		}
		wait := delay
		if hint, ok := RetryAfterHint(last); ok && hint > wait {
			wait = hint
		}
		if wait > p.MaxDelay {
			wait = p.MaxDelay
		}
		if p.Jitter > 0 {
			u := 2*rng.Float64() - 1
			wait = time.Duration(float64(wait) * (1 + p.Jitter*u))
		}
		// Re-cap after jitter: upward jitter on an already-capped delay
		// would otherwise exceed MaxDelay by up to the jitter fraction,
		// violating the "MaxDelay caps every delay, hint or not" contract.
		if wait > p.MaxDelay {
			wait = p.MaxDelay
		}
		if err := p.Sleep(ctx, wait); err != nil {
			return crerr.Canceled(err)
		}
		delay = time.Duration(float64(delay) * multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// permanentError marks an error the loop must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return "permanent: " + e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable: Do stops immediately and returns
// it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked non-retryable by Permanent
// anywhere in its chain.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// retryAfterError carries a server-issued minimum wait.
type retryAfterError struct {
	err  error
	wait time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.err, e.wait)
}
func (e *retryAfterError) Unwrap() error { return e.err }

// WithRetryAfter attaches a minimum backoff wait to err — the typed form
// of an HTTP Retry-After header, whether from an overload 503 or a
// per-tenant quota 429. A nil err stays nil.
func WithRetryAfter(err error, wait time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryAfterError{err: err, wait: wait}
}

// RetryAfterHint extracts the minimum wait attached by WithRetryAfter
// anywhere in err's chain.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.wait, true
	}
	return 0, false
}
