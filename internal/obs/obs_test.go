package obs

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Fatal("re-resolving a counter must return the same handle")
	}
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1000 observations uniform over (0, 1]s: p50 ≈ 0.5, p90 ≈ 0.9.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if math.Abs(s.Sum-500.5) > 1e-6 {
		t.Fatalf("sum = %g, want 500.5", s.Sum)
	}
	if s.Min != 0.001 || s.Max != 1 {
		t.Fatalf("min/max = %g/%g, want 0.001/1", s.Min, s.Max)
	}
	// Bucket interpolation error is bounded by the covering bucket width.
	if math.Abs(s.P50-0.5) > 0.25 {
		t.Fatalf("p50 = %g, want ≈0.5", s.P50)
	}
	if math.Abs(s.P90-0.9) > 0.5 {
		t.Fatalf("p90 = %g, want ≈0.9", s.P90)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Fatalf("quantiles must be ordered: p50=%g p90=%g p99=%g", s.P50, s.P90, s.P99)
	}
	if s.P99 > s.Max {
		t.Fatalf("p99 %g exceeds observed max %g", s.P99, s.Max)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one")
	h.Observe(0.42)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0.42 || s.Max != 0.42 {
		t.Fatalf("snapshot = %+v", s)
	}
	// All quantiles of a single observation stay within [min, max].
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %g outside [%g, %g]", q, s.Min, s.Max)
		}
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("of")
	h.Observe(100) // overflow bucket
	h.Observe(-5)  // clamps to 0
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2 (NaN dropped)", s.Count)
	}
	if s.Max != 100 || s.Min != 0 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	// The overflow bucket has no upper bound; its quantiles interpolate
	// over [lastBound, Max] rather than pinning to Max.
	if last := buckets[len(buckets)-1]; s.P99 < last || s.P99 > s.Max {
		t.Fatalf("overflow-bucket p99 = %g, want within [%g, %g]", s.P99, last, s.Max)
	}
}

// TestHistogramAllOverflowBucket is the regression test for the
// overflow-pinning bug: when every observation lands past the last
// bucket boundary, quantiles used to collapse to Max — the median of
// {42, 55} reported 55. They must interpolate over the observed span.
func TestHistogramAllOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ofonly")
	h.Observe(42)
	h.Observe(55)
	s := h.Snapshot()
	if s.Min != 42 || s.Max != 55 {
		t.Fatalf("min/max = %g/%g, want 42/55", s.Min, s.Max)
	}
	if s.P50 >= s.Max {
		t.Fatalf("all-overflow p50 = %g pinned to max %g", s.P50, s.Max)
	}
	if s.P50 < s.Min {
		t.Fatalf("all-overflow p50 = %g below min %g", s.P50, s.Min)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Fatalf("quantiles must be ordered: p50=%g p90=%g p99=%g", s.P50, s.P90, s.P99)
	}
}

// TestHistogramQuantilesWithinRange: for any mix of observations —
// sub-minimum bucket spans, overflow bucket, single values — every
// reported quantile must lie inside the exact observed [Min, Max].
func TestHistogramQuantilesWithinRange(t *testing.T) {
	cases := [][]float64{
		{0.42},
		{0.42, 0.55},
		{100, 200, 300},          // all past the last bound, 10s
		{1e-7},                   // far below the first bound
		{1e-7, 1e-6, 11, 12, 13}, // both tails at once
		{0.003, 0.003, 0.003},    // repeated value inside one bucket
	}
	for ci, vals := range cases {
		r := NewRegistry()
		h := r.Histogram("rng")
		for _, v := range vals {
			h.Observe(v)
		}
		s := h.Snapshot()
		for _, q := range []struct {
			name string
			v    float64
		}{{"p50", s.P50}, {"p90", s.P90}, {"p99", s.P99}} {
			if q.v < s.Min || q.v > s.Max {
				t.Errorf("case %d %v: %s = %g outside [%g, %g]", ci, vals, q.name, q.v, s.Min, s.Max)
			}
		}
		if s.P50 > s.P90 || s.P90 > s.P99 {
			t.Errorf("case %d %v: quantiles out of order: %g/%g/%g", ci, vals, s.P50, s.P90, s.P99)
		}
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	s := r.Histogram("empty").Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v, want zeros", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(0.01)
	doc, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 3 || back.Gauges["g"] != -2 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip snapshot = %+v", back)
	}
}

// TestRegistryHammer drives every metric type from many goroutines while
// snapshots are taken concurrently; run under -race this is the
// registry's data-race certification.
func TestRegistryHammer(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 8
		iters      = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hammer_total")
			ga := r.Gauge("hammer_depth")
			h := r.Histogram("hammer_lat")
			for i := 0; i < iters; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(float64(i%100) / 1000)
				ga.Add(-1)
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["hammer_total"] != goroutines*iters {
		t.Fatalf("counter = %d, want %d", s.Counters["hammer_total"], goroutines*iters)
	}
	if s.Gauges["hammer_depth"] != 0 {
		t.Fatalf("gauge = %d, want 0", s.Gauges["hammer_depth"])
	}
	if s.Histograms["hammer_lat"].Count != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", s.Histograms["hammer_lat"].Count, goroutines*iters)
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("request IDs must be unique: %s == %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("request ID %q should be 16 chars", a)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestID(ctx); got != a {
		t.Fatalf("RequestID = %q, want %q", got, a)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID of bare context = %q, want empty", got)
	}
	if ctx2 := WithRequestID(context.Background(), ""); RequestID(ctx2) != "" {
		t.Fatal("empty id must not be attached")
	}
}

func TestNewLoggerNilDiscards(t *testing.T) {
	lg := NewLogger(nil)
	lg.Info("goes nowhere", "k", "v") // must not panic
}
