package capacity

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/crerr"
)

// TestPercentileNearestRank pins the quantile convention of the sweep
// aggregates: the p-quantile of n samples is the ⌈p·n⌉-th smallest
// value — in particular p99 of 100 samples is the 99th sorted value, and
// p50 of an even count is the lower middle, never an interpolated
// midpoint.
func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := sortedPercentile(hundred, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 of 100 samples = %v, want 99ms (the 99th value)", got)
	}
	if got := sortedPercentile(hundred, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 of 100 samples = %v, want 50ms", got)
	}
	if got := sortedPercentile(hundred, 0.90); got != 90*time.Millisecond {
		t.Fatalf("p90 of 100 samples = %v, want 90ms", got)
	}
	if got := sortedPercentile(hundred, 1.0); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want the max", got)
	}

	four := []time.Duration{10, 20, 30, 40}
	if got := sortedPercentile(four, 0.5); got != 20 {
		t.Fatalf("p50 of 4 samples = %v, want the 2nd value (20)", got)
	}
	if got := sortedPercentile(four, 0.99); got != 40 {
		t.Fatalf("p99 of 4 samples = %v, want the max (40)", got)
	}
	one := []time.Duration{7}
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		if got := sortedPercentile(one, p); got != 7 {
			t.Fatalf("p%g of 1 sample = %v, want 7", 100*p, got)
		}
	}
	if got := sortedPercentile(nil, 0.5); got != 0 {
		t.Fatalf("empty input = %v, want 0", got)
	}
}

func TestAggregateOutcomes(t *testing.T) {
	spans := []Span{
		{Level: 4, Outcome: OK, Duration: 10 * time.Millisecond},
		{Level: 4, Outcome: OK, Duration: 30 * time.Millisecond},
		{Level: 4, Outcome: Shed},
		{Level: 4, Outcome: Error},
		{Level: 4, Outcome: Canceled, Duration: time.Second},
		{Level: 8, Outcome: OK, Duration: 99 * time.Millisecond}, // other level: excluded
	}
	st := Aggregate(spans, 4, 2*time.Second)
	if st.OK != 2 || st.Shed != 1 || st.Errors != 1 || st.Canceled != 1 {
		t.Fatalf("counts = ok %d shed %d err %d canceled %d, want 2/1/1/1",
			st.OK, st.Shed, st.Errors, st.Canceled)
	}
	if st.Throughput != 1.0 { // 2 OK over 2s
		t.Fatalf("throughput = %g, want 1.0 (canceled spans must not count)", st.Throughput)
	}
	// Latency quantiles come from OK spans only: the 1s canceled span
	// must not drag the p99 up.
	if st.P99 != 30*time.Millisecond {
		t.Fatalf("p99 = %v, want 30ms (OK spans only)", st.P99)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OK},
		{crerr.Canceled(context.Canceled), Canceled},
		{context.Canceled, Canceled},
		{context.DeadlineExceeded, Canceled},
		{fmt.Errorf("retry: 3 attempt(s) exhausted: %w", crerr.ErrOverloaded), Shed},
		{crerr.ErrDraining, Shed},
		{errors.New("connection refused"), Error},
		{fmt.Errorf("wrap: %w", crerr.ErrCanceled), Canceled},
	}
	for i, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("case %d (%v): outcome %v, want %v", i, tc.err, got, tc.want)
		}
	}
}
