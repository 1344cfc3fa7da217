// Package eval implements the paper's evaluation protocol: Algorithm 2
// (k-fold cross-validated median absolute percentage error with 10/50/90%
// quantiles), the out-of-sample field-transfer protocol of §VI-C, and the
// leave-one-predictor-out ablation of Fig. 1. Ground-truth compression
// ratios are memoized so that comparing several methods never re-runs a
// compressor on the same buffer.
package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/crestlab/crest/internal/baselines"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/parallel"
	"github.com/crestlab/crest/internal/stats"
)

// Quantiles are the 10%, 50% and 90% quantiles of the per-fold MedAPEs,
// the summary Algorithm 2 line 18 reports.
type Quantiles struct {
	Q10, Q50, Q90 float64
}

func (q Quantiles) String() string {
	return fmt.Sprintf("10%%=%.3g med=%.3g 90%%=%.3g", q.Q10, q.Q50, q.Q90)
}

// CRCache memoizes ground-truth compression ratios per (buffer,
// compressor, bound), already capped at core.DefaultCRCap, the
// operational cap of the protocol (§IV-B). It is safe for concurrent use:
// entries admit singleflight-style, so racing first requests for the same
// key run the compressor exactly once.
type CRCache struct {
	mu sync.Mutex
	m  map[crKey]*crEntry
}

type crKey struct {
	buf  *grid.Buffer
	comp string
	eps  float64
}

// crEntry is a singleflight slot: done closes once cr/err are final.
type crEntry struct {
	done chan struct{}
	cr   float64
	err  error
}

// NewCRCache returns an empty cache.
func NewCRCache() *CRCache { return &CRCache{m: make(map[crKey]*crEntry)} }

// Ratio returns the capped true compression ratio, compressing on first
// use. Concurrent first requests for the same key share one compression.
// A failing (or panicking) compression is reported to its requesters but
// never cached: the key misses again on the next call, and the panic is
// recovered into an error matching crerr.ErrCompressor.
func (c *CRCache) Ratio(comp compressors.Compressor, buf *grid.Buffer, eps float64) (float64, error) {
	k := crKey{buf, comp.Name(), eps}
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		c.mu.Unlock()
		<-e.done
		return e.cr, e.err
	}
	e = &crEntry{done: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()
	func() {
		defer func() {
			if v := recover(); v != nil {
				e.err = crerr.Recovered(v, crerr.ErrCompressor)
			}
		}()
		cr, err := compressors.Ratio(comp, buf, eps)
		if err == nil && cr > core.DefaultCRCap {
			cr = core.DefaultCRCap
		} else if err != nil {
			err = fmt.Errorf("%w: %v", crerr.ErrCompressor, err)
		}
		e.cr, e.err = cr, err
	}()
	if e.err != nil {
		c.mu.Lock()
		if c.m[k] == e {
			delete(c.m, k)
		}
		c.mu.Unlock()
	}
	close(e.done)
	return e.cr, e.err
}

// Ratios maps Ratio over buffers.
func (c *CRCache) Ratios(comp compressors.Compressor, bufs []*grid.Buffer, eps float64) ([]float64, error) {
	out := make([]float64, len(bufs))
	for i, b := range bufs {
		cr, err := c.Ratio(comp, b, eps)
		if err != nil {
			return nil, fmt.Errorf("eval: %s on %s/%s step %d: %w", comp.Name(), b.Dataset, b.Field, b.Step, err)
		}
		out[i] = cr
	}
	return out, nil
}

// RatiosParallel is Ratios with the cache misses compressed on a bounded
// worker pool (workers <= 0 selects GOMAXPROCS). Output order and values
// are identical to Ratios; on failure every failing buffer index is
// reported (crerr.AggregateError).
func (c *CRCache) RatiosParallel(comp compressors.Compressor, bufs []*grid.Buffer, eps float64, workers int) ([]float64, error) {
	return c.RatiosParallelCtx(context.Background(), comp, bufs, eps, workers)
}

// RatiosParallelCtx is RatiosParallel with cooperative cancellation: once
// ctx is done, workers finish the compression they are running and drain,
// and the returned error matches crerr.ErrCanceled.
func (c *CRCache) RatiosParallelCtx(ctx context.Context, comp compressors.Compressor, bufs []*grid.Buffer, eps float64, workers int) ([]float64, error) {
	out := make([]float64, len(bufs))
	errs := make([]error, len(bufs))
	cerr := parallel.ForEachDynamicCtx(ctx, len(bufs), workers, func(i int) {
		cr, err := c.Ratio(comp, bufs[i], eps)
		if err != nil {
			b := bufs[i]
			errs[i] = fmt.Errorf("eval: %s on %s/%s step %d: %w", comp.Name(), b.Dataset, b.Field, b.Step, err)
			return
		}
		out[i] = cr
	})
	if cerr != nil {
		return nil, crerr.Canceled(cerr)
	}
	if err := crerr.Aggregate(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// featureWarmer is implemented by methods (the proposed approach) that can
// precompute their feature cache for a buffer set across workers.
type featureWarmer interface {
	Warm(bufs []*grid.Buffer, epses []float64, workers int) error
}

// ctxWarmer is the cancellable refinement of featureWarmer.
type ctxWarmer interface {
	WarmContext(ctx context.Context, bufs []*grid.Buffer, epses []float64, workers int) error
}

// KFold runs Algorithm 2: k-fold cross-validation of method m on bufs with
// compressor comp at bound eps, returning the MedAPE quantiles and the raw
// per-fold MedAPEs.
//
// The expensive per-buffer work scales with cores: ground-truth ratios and
// (for methods that support warming) predictor features are precomputed on
// a worker pool before the fold loop, and per-fold predictions fan out
// when the method marks its Predict concurrency-safe. Fold order, fitting
// and all numeric results are identical to a serial run.
func KFold(m baselines.Method, bufs []*grid.Buffer, comp compressors.Compressor, eps float64, k int, seed int64, cache *CRCache) (Quantiles, []float64, error) {
	return KFoldContext(context.Background(), m, bufs, comp, eps, k, seed, cache)
}

// KFoldContext is KFold with cooperative cancellation: the context gates
// the concurrent pre-passes, every fold boundary, and (for the proposed
// method) each EM training iteration, so a cancelled evaluation returns
// promptly with an error matching crerr.ErrCanceled.
func KFoldContext(ctx context.Context, m baselines.Method, bufs []*grid.Buffer, comp compressors.Compressor, eps float64, k int, seed int64, cache *CRCache) (Quantiles, []float64, error) {
	n := len(bufs)
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	if n < 2 {
		return Quantiles{}, nil, fmt.Errorf("eval: need at least 2 buffers, got %d", n)
	}
	if cache == nil {
		cache = NewCRCache()
	}
	// Pre-pass: every buffer's ground truth (and, when available, its
	// features) is needed across the folds; compute them concurrently once
	// instead of faulting them in one at a time inside the fold loop.
	if _, err := cache.RatiosParallelCtx(ctx, comp, bufs, eps, 0); err != nil {
		return Quantiles{}, nil, err
	}
	switch w := m.(type) {
	case ctxWarmer:
		if err := w.WarmContext(ctx, bufs, []float64{eps}, 0); err != nil {
			return Quantiles{}, nil, fmt.Errorf("eval: feature warm: %w", err)
		}
	case featureWarmer:
		if err := w.Warm(bufs, []float64{eps}, 0); err != nil {
			return Quantiles{}, nil, fmt.Errorf("eval: feature warm: %w", err)
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	concurrent := false
	if cp, ok := m.(baselines.ConcurrentPredictor); ok {
		concurrent = cp.ConcurrentPredictSafe()
	}
	medapes := make([]float64, 0, k)
	for f := 0; f < k; f++ {
		if err := ctx.Err(); err != nil {
			return Quantiles{}, nil, crerr.Canceled(err)
		}
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		trainBufs := pick(bufs, trainIdx)
		trainCRs, err := cache.Ratios(comp, trainBufs, eps)
		if err != nil {
			return Quantiles{}, nil, err
		}
		if err := m.Fit(trainBufs, trainCRs, eps); err != nil {
			return Quantiles{}, nil, fmt.Errorf("eval: fold %d fit: %w", f, err)
		}
		apes, err := foldAPEs(m, bufs, folds[f], comp, eps, cache, concurrent)
		if err != nil {
			return Quantiles{}, nil, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		medapes = append(medapes, stats.Median(apes))
	}
	qs := stats.Quantiles(medapes, 0.10, 0.50, 0.90)
	return Quantiles{Q10: qs[0], Q50: qs[1], Q90: qs[2]}, medapes, nil
}

// foldAPEs evaluates one fold's held-out buffers, fanning predictions over
// a worker pool when the method's Predict is concurrency-safe. Results are
// written by index, so the output order matches the serial loop exactly.
func foldAPEs(m baselines.Method, bufs []*grid.Buffer, fold []int, comp compressors.Compressor, eps float64, cache *CRCache, concurrent bool) ([]float64, error) {
	apes := make([]float64, len(fold))
	errs := make([]error, len(fold))
	workers := 1
	if concurrent {
		workers = 0 // GOMAXPROCS
	}
	parallel.ForEachDynamic(len(fold), workers, func(j int) {
		ti := fold[j]
		truth, err := cache.Ratio(comp, bufs[ti], eps)
		if err != nil {
			errs[j] = err
			return
		}
		pred, err := m.Predict(bufs[ti], eps)
		if err != nil {
			errs[j] = fmt.Errorf("predict: %w", err)
			return
		}
		apes[j] = stats.AbsPercentageError(truth, pred)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return apes, nil
}

func pick(bufs []*grid.Buffer, idx []int) []*grid.Buffer {
	out := make([]*grid.Buffer, len(idx))
	for i, j := range idx {
		out[i] = bufs[j]
	}
	return out
}

// PredPair is one test observation for predicted-vs-actual plots (Fig. 6).
type PredPair struct {
	True, Pred float64
	Lo, Hi     float64 // conformal interval when available, else NaN
}

// OutOfSample fits on buffers from training fields and evaluates on a held
// -out field (§VI-C), returning the MedAPE and the per-buffer pairs.
func OutOfSample(m baselines.Method, trainBufs, testBufs []*grid.Buffer, comp compressors.Compressor, eps float64, cache *CRCache) (float64, []PredPair, error) {
	if cache == nil {
		cache = NewCRCache()
	}
	trainCRs, err := cache.RatiosParallel(comp, trainBufs, eps, 0)
	if err != nil {
		return 0, nil, err
	}
	// The held-out truths are needed below; compress them concurrently too.
	if _, err := cache.RatiosParallel(comp, testBufs, eps, 0); err != nil {
		return 0, nil, err
	}
	if err := m.Fit(trainBufs, trainCRs, eps); err != nil {
		return 0, nil, fmt.Errorf("eval: out-of-sample fit: %w", err)
	}
	pairs := make([]PredPair, 0, len(testBufs))
	apes := make([]float64, 0, len(testBufs))
	prop, isProposed := m.(*baselines.Proposed)
	for _, b := range testBufs {
		truth, err := cache.Ratio(comp, b, eps)
		if err != nil {
			return 0, nil, err
		}
		pair := PredPair{True: truth, Lo: math.NaN(), Hi: math.NaN()}
		if isProposed {
			est, err := prop.Interval(b, eps)
			if err != nil {
				return 0, nil, err
			}
			pair.Pred, pair.Lo, pair.Hi = est.CR, est.Lo, est.Hi
		} else {
			pred, err := m.Predict(b, eps)
			if err != nil {
				return 0, nil, err
			}
			pair.Pred = pred
		}
		apes = append(apes, stats.AbsPercentageError(truth, pair.Pred))
		pairs = append(pairs, pair)
	}
	return stats.Median(apes), pairs, nil
}
