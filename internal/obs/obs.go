// Package obs is the unified observability layer of the estimation
// pipeline: a dependency-free, race-safe metrics registry (atomic
// counters, gauges, and fixed-bucket latency histograms with
// p50/p90/p99 snapshots), per-request IDs threaded through contexts, and
// structured logging helpers over log/slog.
//
// The paper's value proposition is that estimation is cheap *relative to
// compression* (§V evaluates predictor cost head-to-head with the
// compressor runs), so where the pipeline spends its time is a
// first-class result, not a debugging afterthought. Every stage —
// feature cache, the five predictors, the batch engine, snapshot I/O,
// the HTTP boundary — records into one registry, and the server exports
// it as JSON at GET /metrics.
//
// Design constraints, in order:
//
//   - Zero third-party dependencies: the registry must be importable
//     from the lowest layers (predictors, featcache) without dragging a
//     metrics client into a numerical library.
//   - Race-safety without lock contention on the hot path: a metric
//     handle, once resolved, is updated with plain atomics; the registry
//     mutex is touched only at handle-resolution time.
//   - Fixed memory: histograms use a fixed bucket layout, so a
//     long-running server's metrics footprint is constant.
//
// Most call sites record into the process-wide Default() registry, which
// is what `crest serve` exports; tests that need isolation construct
// their own with NewRegistry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// ---------------------------------------------------------------------------
// Gauge

// Gauge is an instantaneous signed level (queue depth, inflight work).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ---------------------------------------------------------------------------
// Histogram

// buckets is the latency bucket layout of every histogram: ascending
// upper bounds in seconds, roughly logarithmic from 10µs to 10s, dense
// enough that interpolated p99 estimates stay within a bucket's width of
// the truth across the pipeline's operating range (predictor evaluation
// is typically 10µs–100ms; HTTP requests 100µs–seconds). The final
// implicit bucket catches everything above the last boundary.
var buckets = [...]float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// recorded with atomics only; quantiles are estimated at snapshot time by
// linear interpolation within the covering bucket.
type Histogram struct {
	counts [len(buckets) + 1]atomic.Uint64 // counts[i] covers (buckets[i-1], buckets[i]]
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value (seconds for latency histograms). NaN is
// dropped; negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(buckets[:], v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

func atomicAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func atomicMinFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time summary of a histogram. Quantiles
// are bucket-interpolated estimates; Min and Max are exact.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. Concurrent observations may land
// between the per-bucket loads; the snapshot is internally consistent to
// within those in-flight updates, never torn within one bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: math.Float64frombits(h.sum.Load())}
	if total == 0 {
		return s
	}
	s.Min = math.Float64frombits(h.min.Load())
	s.Max = math.Float64frombits(h.max.Load())
	s.P50 = h.quantile(counts, total, 0.50)
	s.P90 = h.quantile(counts, total, 0.90)
	s.P99 = h.quantile(counts, total, 0.99)
	return s
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank, with the interpolation span clamped
// into the exact observed [Min, Max] before interpolating. The clamp
// matters at the edges:
//
//   - A single observation (or a rank bucket whose nominal range
//     extends past the observed extremes) must report a value that was
//     actually observed, not a mid-bucket point outside [Min, Max].
//   - The overflow bucket has no upper bound; its span is
//     [max(lastBound, Min), Max], so an all-overflow distribution
//     interpolates between its observed extremes instead of pinning
//     every quantile — P50 included — to the maximum.
func (h *Histogram) quantile(counts []uint64, total uint64, q float64) float64 {
	min := math.Float64frombits(h.min.Load())
	max := math.Float64frombits(h.max.Load())
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := 0.0, max
			if i > 0 {
				lo = buckets[i-1]
			}
			if i < len(buckets) {
				hi = buckets[i]
			}
			// Clamp the bucket span to the observed range: observations
			// in this bucket cannot lie below Min or above Max.
			if lo < min {
				lo = min
			}
			if hi > max {
				hi = max
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return max
}

// ---------------------------------------------------------------------------
// Registry

// Registry is a race-safe namespace of metrics. Handles are resolved by
// name once (under a short mutex) and then updated lock-free; resolving
// an existing name returns the same handle. The zero value is not usable;
// construct with NewRegistry or use the process-wide Default.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: the one `crest serve`
// exports at GET /metrics and the default sink of every instrumented
// pipeline stage.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it on
// first use. Registering a name already held by another metric type
// panics: metric names are a static, code-owned namespace, so a clash is
// a programming error, not an input error.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.mustBeFree(name, "histogram")
	h := newHistogram()
	r.histograms[name] = h
	return h
}

func (r *Registry) mustBeFree(name, want string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, requested as %s", name, want))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, requested as %s", name, want))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, requested as %s", name, want))
	}
}

// Snapshot is a point-in-time JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. It takes the registry mutex
// only to copy the handle maps; the metric reads themselves are atomic.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs := make(map[string]*Counter, len(r.counters))
	gs := make(map[string]*Gauge, len(r.gauges))
	hs := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.counters {
		cs[k] = v
	}
	for k, v := range r.gauges {
		gs[k] = v
	}
	for k, v := range r.histograms {
		hs[k] = v
	}
	r.mu.Unlock()

	out := Snapshot{
		Counters:   make(map[string]uint64, len(cs)),
		Gauges:     make(map[string]int64, len(gs)),
		Histograms: make(map[string]HistogramSnapshot, len(hs)),
	}
	for k, v := range cs {
		out.Counters[k] = v.Value()
	}
	for k, v := range gs {
		out.Gauges[k] = v.Value()
	}
	for k, v := range hs {
		out.Histograms[k] = v.Snapshot()
	}
	return out
}
