// Package batch is the concurrent batch-estimation engine: it fans
// buffer × error-bound estimation requests over a bounded worker pool so
// compressibility estimation stays cheap enough to run inline with large
// parallel workloads — the operating point the paper targets with its
// multi-threaded predictor implementation (§IV-C) and its parallel
// aggregated-write use case (§V-E).
//
// Every request's features come from a shared featcache.Cache, so a batch
// touching the same buffer at several bounds (or several batches touching
// the same content) computes each buffer's dataset predictors once while
// they stay within the cache's byte budget. Results are written by request index, which makes the engine's
// output bit-identical to the serial Estimate path for any worker count
// and any request order (given a deterministic predictor configuration).
package batch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/parallel"
)

// Request asks for one compression-ratio estimate: one buffer at one
// absolute error bound. Native float32 data enters the library only as
// dtype-1 CRBS streams (predictors.ForEachSlice), not as batch requests.
type Request struct {
	Buf *grid.Buffer
	Eps float64
}

// featsPool recycles the per-request feature vectors across workers and
// batches; see EstimateAllContext's feature stage.
var featsPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 8)
	return &s
}}

// Engine evaluates batches of requests against one trained estimator,
// sharing a feature cache across requests and batches. An Engine is safe
// for concurrent use; EstimateAll may itself be called from several
// goroutines sharing the cache and counters.
type Engine struct {
	est     *core.Estimator
	cache   *featcache.Cache
	workers int
	// timeout, when positive, bounds every batch: EstimateAllContext
	// derives a per-batch deadline from it.
	timeout time.Duration

	// Counters, all updated atomically.
	requests      uint64
	batches       uint64
	failures      uint64
	panics        uint64
	canceled      uint64
	inFlight      int64
	peakInFlight  int64
	featureNanos  int64
	estimateNanos int64
	wallNanos     int64

	// Per-stage latency histograms on the observability registry:
	// feature extraction (cache lookup + predictor computation on miss),
	// mixture-model inference, and the whole per-request path.
	hFeature *obs.Histogram
	hEstim   *obs.Histogram
	hRequest *obs.Histogram
}

// New returns an engine over a trained estimator and a shared feature
// cache. workers <= 0 selects GOMAXPROCS. The cache must have been built
// with the same predictor configuration the estimator was trained on; nil
// creates a private cache from the estimator's default configuration.
func New(est *core.Estimator, cache *featcache.Cache, workers int) *Engine {
	if cache == nil {
		cache = featcache.New(est.PredictorConfig())
	}
	e := &Engine{est: est, cache: cache, workers: parallel.Workers(workers)}
	e.SetObs(nil)
	return e
}

// SetObs re-points the engine's stage-latency histograms at registry r
// (nil selects the process default). Call before the engine is shared
// across goroutines; the Stats() counters are unaffected.
func (e *Engine) SetObs(r *obs.Registry) {
	if r == nil {
		r = obs.Default()
	}
	e.hFeature = r.Histogram("batch_feature_seconds", nil)
	e.hEstim = r.Histogram("batch_estimate_seconds", nil)
	e.hRequest = r.Histogram("batch_request_seconds", nil)
}

// Workers returns the resolved worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's shared feature cache.
func (e *Engine) Cache() *featcache.Cache { return e.cache }

// Estimator returns the wrapped estimator, so the serving layer can reach
// estimator-level facilities (streaming ingest, online recalibration)
// behind the batch engine.
func (e *Engine) Estimator() *core.Estimator { return e.est }

// SetBatchTimeout bounds every subsequent batch with a per-batch deadline
// (zero disables). It composes with any deadline already on the caller's
// context: the earlier of the two wins.
func (e *Engine) SetBatchTimeout(d time.Duration) { e.timeout = d }

// EstimateAll evaluates every request and returns the estimates in request
// order; see EstimateAllContext for the failure contract.
func (e *Engine) EstimateAll(reqs []Request) ([]core.Estimate, error) {
	return e.EstimateAllContext(context.Background(), reqs)
}

// EstimateAllContext evaluates every request, fanning out over the worker
// pool with dynamic scheduling (per-buffer cost is irregular); each result
// lands in its own slot, so the output is independent of scheduling and
// bit-identical to the serial Estimate path.
//
// Failure contract: the engine degrades per-request, never per-batch. A
// request that fails — invalid buffer, non-finite data, feature or model
// error, recovered worker panic — contributes a typed, index-labelled
// error; every other request still completes and its estimate is returned.
// The returned error is a *crerr.AggregateError preserving every failing
// index (match classes with errors.Is, recover indices with errors.As);
// out[i] is valid exactly when the aggregate has no entry for i.
//
// Cancellation: once ctx is done (or the engine's per-batch timeout
// expires), workers finish the request they are running and drain — no
// goroutine outlives the call and the in-flight gauge returns to zero.
// The estimates completed before cancellation are returned alongside an
// error matching crerr.ErrCanceled.
func (e *Engine) EstimateAllContext(ctx context.Context, reqs []Request) ([]core.Estimate, error) {
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	start := time.Now()
	out := make([]core.Estimate, len(reqs))
	errs := make([]error, len(reqs))
	cerr := parallel.ForEachDynamicCtx(ctx, len(reqs), e.workers, func(i int) {
		cur := atomic.AddInt64(&e.inFlight, 1)
		for {
			peak := atomic.LoadInt64(&e.peakInFlight)
			if cur <= peak || atomic.CompareAndSwapInt64(&e.peakInFlight, peak, cur) {
				break
			}
		}
		defer atomic.AddInt64(&e.inFlight, -1)
		// Panic isolation: a worker panic (malformed buffer slipping past
		// validation, injected fault) becomes this request's error, not a
		// process crash, and cannot take sibling requests down with it.
		defer func() {
			if v := recover(); v != nil {
				atomic.AddUint64(&e.panics, 1)
				errs[i] = crerr.Recovered(v, crerr.ErrInvalidBuffer)
			}
		}()

		// Feature vectors are assembled into recycled per-worker buffers
		// so a warm-cache request allocates nothing in the feature stage.
		fp := featsPool.Get().(*[]float64)
		defer featsPool.Put(fp)
		t0 := time.Now()
		feats, err := e.cache.FeaturesInto((*fp)[:0], reqs[i].Buf, reqs[i].Eps)
		if cap(feats) > cap(*fp) {
			*fp = feats
		}
		featDur := time.Since(t0)
		atomic.AddInt64(&e.featureNanos, int64(featDur))
		e.hFeature.Observe(featDur.Seconds())
		if err != nil {
			errs[i] = err
			return
		}
		t1 := time.Now()
		est, err := e.est.Estimate(feats)
		estDur := time.Since(t1)
		atomic.AddInt64(&e.estimateNanos, int64(estDur))
		e.hEstim.Observe(estDur.Seconds())
		e.hRequest.Observe(time.Since(t0).Seconds())
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = est
	})
	atomic.AddUint64(&e.requests, uint64(len(reqs)))
	atomic.AddUint64(&e.batches, 1)
	atomic.AddInt64(&e.wallNanos, int64(time.Since(start)))

	// Decorate failures with the request identity — and the tracing
	// request ID when the context carries one, so a batch error can be
	// joined against the server's slow-request log and the client's
	// X-Request-ID header.
	rid := obs.RequestID(ctx)
	nFailed := 0
	for i, err := range errs {
		if err != nil {
			nFailed++
			b := reqs[i].Buf
			if b == nil {
				continue
			}
			if rid != "" {
				errs[i] = fmt.Errorf("batch: rid %s: %s/%s step %d @ eps %g: %w",
					rid, b.Dataset, b.Field, b.Step, reqs[i].Eps, err)
			} else {
				errs[i] = fmt.Errorf("batch: %s/%s step %d @ eps %g: %w",
					b.Dataset, b.Field, b.Step, reqs[i].Eps, err)
			}
		}
	}
	atomic.AddUint64(&e.failures, uint64(nFailed))
	if cerr != nil {
		atomic.AddUint64(&e.canceled, 1)
		if rid != "" {
			return out, fmt.Errorf("batch: rid %s: %w", rid, crerr.Canceled(cerr))
		}
		return out, crerr.Canceled(cerr)
	}
	return out, crerr.Aggregate(errs)
}

// Stats is a point-in-time snapshot of the engine counters: request and
// batch totals, shared-cache hit/miss counters, worker occupancy, and the
// cumulative wall time of each pipeline stage (feature computation,
// model evaluation) summed across workers, plus the end-to-end batch wall
// time.
type Stats struct {
	Requests uint64
	Batches  uint64

	// Failures counts requests that returned a per-request error;
	// RecoveredPanics counts the subset whose failure was a recovered
	// worker panic; CanceledBatches counts batches cut short by
	// cancellation or deadline.
	Failures        uint64
	RecoveredPanics uint64
	CanceledBatches uint64

	Cache featcache.Stats

	InFlight     int64 // workers busy right now
	PeakInFlight int64 // highest concurrent occupancy observed

	FeatureTime  time.Duration // Σ per-request feature stage
	EstimateTime time.Duration // Σ per-request model stage
	WallTime     time.Duration // Σ per-batch end-to-end
}

// Stats returns a snapshot of the engine and cache counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:        atomic.LoadUint64(&e.requests),
		Batches:         atomic.LoadUint64(&e.batches),
		Failures:        atomic.LoadUint64(&e.failures),
		RecoveredPanics: atomic.LoadUint64(&e.panics),
		CanceledBatches: atomic.LoadUint64(&e.canceled),
		Cache:           e.cache.Stats(),
		InFlight:        atomic.LoadInt64(&e.inFlight),
		PeakInFlight:    atomic.LoadInt64(&e.peakInFlight),
		FeatureTime:     time.Duration(atomic.LoadInt64(&e.featureNanos)),
		EstimateTime:    time.Duration(atomic.LoadInt64(&e.estimateNanos)),
		WallTime:        time.Duration(atomic.LoadInt64(&e.wallNanos)),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d batches=%d failures=%d panics=%d canceled=%d cache[dset %d/%d eb %d/%d hit/miss] peak_workers=%d feature=%s estimate=%s wall=%s",
		s.Requests, s.Batches, s.Failures, s.RecoveredPanics, s.CanceledBatches,
		s.Cache.DatasetHits, s.Cache.DatasetMisses, s.Cache.EBHits, s.Cache.EBMisses,
		s.PeakInFlight, s.FeatureTime.Round(time.Microsecond),
		s.EstimateTime.Round(time.Microsecond), s.WallTime.Round(time.Microsecond))
}
