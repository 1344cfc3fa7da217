package featcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// flakyDataset fails (or panics) for its first failN calls, then
// succeeds, modelling a transient fault on the feature path.
type flakyDataset struct {
	mu    sync.Mutex
	calls int
	failN int
	mode  string // "error" or "panic"
}

func (f *flakyDataset) compute(buf *grid.Buffer, cfg predictors.Config) (predictors.DatasetFeatures, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.failN {
		if f.mode == "panic" {
			panic(fmt.Sprintf("flaky call %d", n))
		}
		return predictors.DatasetFeatures{}, fmt.Errorf("flaky call %d", n)
	}
	return predictors.ComputeDataset(buf, cfg)
}

// TestFailedComputationIsRetryable: the singleflight slot of a failing
// computation must not poison the key — the next caller misses again and
// can succeed once the fault clears. Regression test for the PR-1 design
// where errors were cached forever.
func TestFailedComputationIsRetryable(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			f := &flakyDataset{failN: 2, mode: mode}
			c := NewWithCompute(serialCfg, f.compute, nil)
			buf := randomBuffer(t, 32, 32, 7)

			for i := 0; i < 2; i++ {
				if _, err := c.Features(buf, 1e-3); err == nil {
					t.Fatalf("call %d: expected injected failure", i)
				}
			}
			got, err := c.Features(buf, 1e-3)
			if err != nil {
				t.Fatalf("third call should succeed after fault cleared: %v", err)
			}
			want, err := predictors.Compute(buf, 1e-3, serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Vector() {
				if got[i] != v {
					t.Errorf("feature %d: %g != %g after recovery", i, got[i], v)
				}
			}
			st := c.Stats()
			if st.DatasetMisses != 3 || st.Failures != 2 {
				t.Errorf("misses=%d failures=%d, want 3 and 2", st.DatasetMisses, st.Failures)
			}
			if c.Pending() != 0 {
				t.Errorf("%d stuck in-flight entries", c.Pending())
			}
		})
	}
}

// TestPanicBecomesTypedError: a panicking computation surfaces as an error
// wrapping crerr.ErrInvalidBuffer carrying the panic value, for every
// concurrent waiter on the same in-flight slot.
func TestPanicBecomesTypedError(t *testing.T) {
	release := make(chan struct{})
	c := NewWithCompute(serialCfg,
		func(buf *grid.Buffer, cfg predictors.Config) (predictors.DatasetFeatures, error) {
			<-release
			panic("boom")
		}, nil)
	buf := randomBuffer(t, 16, 16, 3)

	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = c.Dataset(buf)
		}(g)
	}
	close(release)
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, crerr.ErrInvalidBuffer) {
			t.Errorf("waiter %d: err = %v, want ErrInvalidBuffer", g, err)
		}
		if v, ok := crerr.PanicValue(err); !ok || v != "boom" {
			t.Errorf("waiter %d: panic value %v, %v", g, v, ok)
		}
	}
	if c.Len() != 0 || c.Pending() != 0 {
		t.Errorf("len=%d pending=%d after panic, want 0/0", c.Len(), c.Pending())
	}
	st := c.Stats()
	if st.DatasetHits+st.DatasetMisses != waiters {
		t.Errorf("hits %d + misses %d != %d requests", st.DatasetHits, st.DatasetMisses, waiters)
	}
}

// TestWarmContextCancel: cancelling mid-warm returns a typed cancellation
// error, leaves no stuck entries, and a later warm completes the fill.
func TestWarmContextCancel(t *testing.T) {
	c := New(serialCfg)
	var bufs []*grid.Buffer
	for s := int64(0); s < 16; s++ {
		bufs = append(bufs, randomBuffer(t, 24, 24, s))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.WarmContext(ctx, bufs, []float64{1e-3}, 4)
	if !errors.Is(err, crerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if c.Pending() != 0 {
		t.Errorf("%d stuck in-flight entries after cancel", c.Pending())
	}
	if err := c.Warm(bufs, []float64{1e-3}, 4); err != nil {
		t.Fatalf("warm after cancel: %v", err)
	}
	if got := c.Stats().DatasetMisses; got != uint64(len(bufs)) {
		t.Errorf("dataset misses %d, want %d", got, len(bufs))
	}
}

// TestWarmAggregatesFailures: Warm reports every failing buffer, not just
// the lowest index, and still leaves the good keys cached.
func TestWarmAggregatesFailures(t *testing.T) {
	c := New(serialCfg)
	bufs := []*grid.Buffer{
		randomBuffer(t, 24, 24, 1),
		grid.NewBuffer(4, 4), // untileable at K=8
		randomBuffer(t, 24, 24, 2),
		grid.NewBuffer(4, 4), // untileable at K=8
	}
	err := c.Warm(bufs, []float64{1e-3}, 2)
	var agg *crerr.AggregateError
	if !errors.As(err, &agg) {
		t.Fatalf("err = %T %v, want AggregateError", err, err)
	}
	if got := agg.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("failing indices %v, want [1 3]", got)
	}
	if _, ferr := c.Features(bufs[0], 1e-3); ferr != nil {
		t.Errorf("good buffer not cached after partial warm: %v", ferr)
	}
}
