package capacity

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/retry"
)

func TestSweepLevels(t *testing.T) {
	var calls atomic.Int64
	levels, err := Sweep(context.Background(), SweepConfig{
		Levels:   []int{1, 2, 4},
		PerLevel: 20,
		Do: func(ctx context.Context) error {
			calls.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	for i, n := range []int{1, 2, 4} {
		l := levels[i]
		if l.N != n || l.OK != 20 || l.Errors != 0 || l.Canceled != 0 {
			t.Fatalf("level %d = %+v, want N=%d OK=20", i, l, n)
		}
		if l.Throughput <= 0 {
			t.Fatalf("level %d throughput %g, want > 0", i, l.Throughput)
		}
	}
	if calls.Load() != 60 {
		t.Fatalf("Do called %d times, want 60", calls.Load())
	}
}

// TestSweepCancellationAtLevelBoundary is the regression test for the
// level-boundary contract: requests still in flight when a level's
// window closes are canceled by the driver and must be recorded as
// Canceled — not as errors — and must not deflate X(N) accounting for
// requests that did complete.
func TestSweepCancellationAtLevelBoundary(t *testing.T) {
	var served atomic.Int64
	levels, err := Sweep(context.Background(), SweepConfig{
		Levels:       []int{4},
		PerLevel:     100,
		LevelTimeout: 120 * time.Millisecond,
		Do: func(ctx context.Context) error {
			// First 8 requests are instant; the rest block until the
			// level boundary cancels them.
			if served.Add(1) <= 8 {
				return nil
			}
			<-ctx.Done()
			return crerr.Canceled(ctx.Err())
		},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	l := levels[0]
	if l.Errors != 0 {
		t.Fatalf("level boundary cancellation counted as %d error(s): %+v", l.Errors, l)
	}
	if l.Canceled != 4 {
		t.Fatalf("canceled = %d, want 4 (one per worker in flight at the boundary)", l.Canceled)
	}
	if l.OK != 8 {
		t.Fatalf("ok = %d, want 8", l.OK)
	}
	if l.Throughput <= 0 {
		t.Fatalf("throughput = %g, want > 0 from the 8 served requests", l.Throughput)
	}
}

// TestSweepRetryCancellationAtLevelBoundary audits the retry loop's
// interaction with the sweep driver: a Do that retries overload with
// Retry-After hints, interrupted mid-backoff by the level boundary,
// must surface as Canceled (crerr.ErrCanceled), never as an exhausted-
// attempts error that would land in the error column.
func TestSweepRetryCancellationAtLevelBoundary(t *testing.T) {
	pol := retry.Policy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, Seed: 1}
	levels, err := Sweep(context.Background(), SweepConfig{
		Levels:       []int{2},
		PerLevel:     2,
		LevelTimeout: 60 * time.Millisecond,
		Do: func(ctx context.Context) error {
			return pol.Do(ctx, func(context.Context) error {
				// Permanently overloaded: the retry loop backs off until
				// the level context dies.
				return retry.WithRetryAfter(
					fmt.Errorf("%w: bench server full", crerr.ErrOverloaded),
					10*time.Millisecond)
			})
		},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	l := levels[0]
	if l.Errors != 0 {
		t.Fatalf("retry interrupted at level boundary counted as %d error(s): %+v", l.Errors, l)
	}
	if l.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", l.Canceled)
	}
}

// TestSweepShedNotErrors: overload rejections are their own column.
func TestSweepShedNotErrors(t *testing.T) {
	var n atomic.Int64
	levels, err := Sweep(context.Background(), SweepConfig{
		Levels:   []int{2},
		PerLevel: 10,
		Do: func(ctx context.Context) error {
			if n.Add(1)%2 == 0 {
				return crerr.ErrOverloaded
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	l := levels[0]
	if l.OK != 5 || l.Shed != 5 || l.Errors != 0 {
		t.Fatalf("got ok %d shed %d err %d, want 5/5/0", l.OK, l.Shed, l.Errors)
	}
}
