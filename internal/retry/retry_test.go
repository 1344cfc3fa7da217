package retry

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/crerr"
)

// newTestRNG returns the first uniform draw of the policy's jitter
// stream for a given seed.
func newTestRNG(seed int64) float64 {
	return 2*rand.New(rand.NewSource(seed)).Float64() - 1
}

// fakeSleep records requested waits without actually sleeping.
func fakeSleep(waits *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return ctx.Err()
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	var waits []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Seed: 1, Sleep: fakeSleep(&waits)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(waits) != 2 {
		t.Fatalf("calls=%d waits=%v", calls, waits)
	}
}

func TestDoBacksOffExponentiallyWithJitterBounds(t *testing.T) {
	var waits []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Hour,
		Jitter: 0.2, Seed: 42, Sleep: fakeSleep(&waits)}
	fail := errors.New("always")
	err := p.Do(context.Background(), func(context.Context) error { return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("exhaustion error lost the cause: %v", err)
	}
	if len(waits) != 4 {
		t.Fatalf("want 4 sleeps, got %v", waits)
	}
	base := 100 * time.Millisecond
	for i, w := range waits {
		nominal := time.Duration(float64(base) * pow(2, i))
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if w < lo || w > hi {
			t.Errorf("sleep %d = %s outside [%s, %s]", i, w, lo, hi)
		}
	}
}

func pow(b float64, e int) float64 {
	out := 1.0
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	var waits []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Hour,
		Jitter: -1, Seed: 1, Sleep: fakeSleep(&waits)}
	hint := 2 * time.Second
	calls := 0
	p.Do(context.Background(), func(context.Context) error {
		calls++
		return WithRetryAfter(errors.New("shed"), hint)
	})
	if len(waits) != 2 {
		t.Fatalf("waits=%v", waits)
	}
	for i, w := range waits {
		if w != hint {
			t.Errorf("sleep %d = %s, want hint %s", i, w, hint)
		}
	}
}

// TestJitterNeverExceedsMaxDelay is the regression test for the
// jitter-after-cap bug: jitter used to be applied after the MaxDelay cap,
// so with Jitter=0.2 the actual wait could exceed MaxDelay by up to 20%.
// BaseDelay equals MaxDelay, so every pre-jitter wait sits exactly at the
// cap; a seed whose first uniform draw is near 1 drives the jittered wait
// as far above the cap as the bug allows.
func TestJitterNeverExceedsMaxDelay(t *testing.T) {
	// Find a seed whose first draw u = 2·Float64()−1 is close to +1, so
	// the pre-fix code would produce wait ≈ 1.2·MaxDelay on the first
	// sleep. Scanning keeps the test independent of math/rand internals.
	seed := int64(0)
	for s := int64(1); s < 10_000; s++ {
		if newTestRNG(s) > 0.95 {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed with a near-1 first draw in range")
	}
	const maxDelay = 100 * time.Millisecond
	var waits []time.Duration
	p := Policy{MaxAttempts: 6, BaseDelay: maxDelay, MaxDelay: maxDelay,
		Jitter: 0.2, Seed: seed, Sleep: fakeSleep(&waits)}
	p.Do(context.Background(), func(context.Context) error { return errors.New("always") })
	if len(waits) != 5 {
		t.Fatalf("want 5 sleeps, got %v", waits)
	}
	for i, w := range waits {
		if w > maxDelay {
			t.Errorf("sleep %d = %s exceeds MaxDelay %s: jitter escaped the cap", i, w, maxDelay)
		}
	}
}

// TestHintLargerThanMaxDelayIsClamped pins the retry-client interplay: a
// server Retry-After hint larger than MaxDelay must still be clamped by
// Policy.Do — the hint raises the floor of the next wait, it does not
// override the policy's ceiling.
func TestHintLargerThanMaxDelayIsClamped(t *testing.T) {
	const maxDelay = 50 * time.Millisecond
	var waits []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: maxDelay,
		Jitter: -1, Seed: 1, Sleep: fakeSleep(&waits)}
	p.Do(context.Background(), func(context.Context) error {
		return WithRetryAfter(errors.New("shed"), 10*time.Second)
	})
	if len(waits) != 2 {
		t.Fatalf("waits=%v", waits)
	}
	for i, w := range waits {
		if w != maxDelay {
			t.Errorf("sleep %d = %s, want clamp to MaxDelay %s", i, w, maxDelay)
		}
	}
}

// TestJitteredHintStaysUnderMaxDelay combines both: an over-cap hint plus
// positive jitter — the post-jitter re-cap must still hold.
func TestJitteredHintStaysUnderMaxDelay(t *testing.T) {
	const maxDelay = 50 * time.Millisecond
	for seed := int64(1); seed <= 64; seed++ {
		var waits []time.Duration
		p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: maxDelay,
			Jitter: 0.2, Seed: seed, Sleep: fakeSleep(&waits)}
		p.Do(context.Background(), func(context.Context) error {
			return WithRetryAfter(errors.New("shed"), time.Minute)
		})
		for i, w := range waits {
			if w > maxDelay {
				t.Fatalf("seed %d sleep %d = %s exceeds MaxDelay %s", seed, i, w, maxDelay)
			}
		}
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	p := Policy{MaxAttempts: 5, Seed: 1, Sleep: func(context.Context, time.Duration) error { return nil }}
	cause := errors.New("bad request")
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(cause)
	})
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestDoStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 100, BaseDelay: time.Millisecond, Seed: 1}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("transient")
	})
	if !errors.Is(err, crerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled classification, got %v", err)
	}
	if calls > 3 {
		t.Fatalf("kept retrying after cancel: %d calls", calls)
	}
}

func TestRetryAfterHintExtraction(t *testing.T) {
	if _, ok := RetryAfterHint(errors.New("plain")); ok {
		t.Error("hint found on plain error")
	}
	err := WithRetryAfter(crerr.ErrOverloaded, 3*time.Second)
	if d, ok := RetryAfterHint(err); !ok || d != 3*time.Second {
		t.Errorf("hint = %v, %v", d, ok)
	}
	if !errors.Is(err, crerr.ErrOverloaded) {
		t.Error("wrapped sentinel lost")
	}
	if Permanent(nil) != nil || WithRetryAfter(nil, time.Second) != nil {
		t.Error("nil error not preserved")
	}
}
