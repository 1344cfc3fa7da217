// Package baselines implements the prior compression-ratio estimation
// methods the paper compares against (§III, Table II, Fig. 7), behind a
// single Method interface shared with the proposed approach:
//
//   - Underwood: black-box linear model on SVD truncation + quantized
//     entropy.
//   - Tao: training-free sampled quantized-entropy bit-rate estimate,
//     originally for online SZ/ZFP selection.
//   - Lu: white-box estimate that runs the SZ2-style prediction and
//     quantization stages and prices the stream from Huffman-tree
//     statistics; it has no notion of other compressor families, which is
//     why the paper observes large errors when it is applied to SZ3.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
)

// Method is a compression-ratio estimation method under evaluation.
// Fit receives buffers with their observed compression ratios at the
// error bound; Predict estimates the ratio of an unseen buffer.
type Method interface {
	Name() string
	Fit(bufs []*grid.Buffer, crs []float64, eps float64) error
	Predict(buf *grid.Buffer, eps float64) (float64, error)
}

// ErrUntrained reports Predict before a successful Fit.
var ErrUntrained = errors.New("baselines: method not trained")

// ConcurrentPredictor marks methods whose Predict is safe to call from
// several goroutines once Fit has returned; concurrent evaluation paths
// (parallel k-fold prediction, the batch engine's method adapter) consult
// it before fanning predictions out.
type ConcurrentPredictor interface {
	ConcurrentPredictSafe() bool
}

// ---------------------------------------------------------------------------
// Proposed method adapter

// Proposed wraps the paper's estimator (internal/core) in the Method
// interface, caching the error-bound-agnostic features per buffer so
// k-fold evaluation does not recompute them.
type Proposed struct {
	Cfg   core.Config
	est   *core.Estimator
	cache *featcache.Cache
}

// NewProposed returns the proposed method with the given pipeline config.
func NewProposed(cfg core.Config) *Proposed {
	return &Proposed{Cfg: cfg, cache: featcache.New(cfg.Predictors)}
}

// NewProposedShared returns the proposed method sharing a feature cache
// with other instances. The five predictors are compressor-independent, so
// per-compressor models (use case B) should share one cache: features for
// each buffer are then computed once, not once per candidate compressor.
func NewProposedShared(cfg core.Config, cache *featcache.Cache) *Proposed {
	return &Proposed{Cfg: cfg, cache: cache}
}

// Name implements Method.
func (p *Proposed) Name() string { return "proposed" }

// Fit implements Method. Samples are grouped by source field so conformal
// calibration holds out whole fields when the training pool spans several.
func (p *Proposed) Fit(bufs []*grid.Buffer, crs []float64, eps float64) error {
	if len(bufs) != len(crs) {
		return fmt.Errorf("baselines: %d buffers vs %d ratios", len(bufs), len(crs))
	}
	samples := make([]core.Sample, len(bufs))
	for i, b := range bufs {
		feats, err := p.cache.Features(b, eps)
		if err != nil {
			return err
		}
		samples[i] = core.Sample{Features: feats, CR: crs[i]}
	}
	est, err := core.TrainGrouped(samples, fieldGroups(bufs, 1), p.Cfg)
	if err != nil {
		return err
	}
	p.est = est
	return nil
}

// fieldGroups labels each buffer (repeated rep times, consecutively) by
// its dataset/field identity for grouped conformal calibration.
func fieldGroups(bufs []*grid.Buffer, rep int) []int {
	ids := make(map[string]int)
	out := make([]int, 0, len(bufs)*rep)
	for _, b := range bufs {
		key := b.Dataset + "/" + b.Field
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		for r := 0; r < rep; r++ {
			out = append(out, id)
		}
	}
	return out
}

// FitMulti trains across several error bounds at once: crs[i][j] is the
// ratio of bufs[i] at epses[j]. Multi-bound training makes the model
// rate-aware through the error-bound-specific distortion feature, which
// use case A's bound search requires.
func (p *Proposed) FitMulti(bufs []*grid.Buffer, crs [][]float64, epses []float64) error {
	if len(bufs) != len(crs) {
		return fmt.Errorf("baselines: %d buffers vs %d ratio rows", len(bufs), len(crs))
	}
	var samples []core.Sample
	for i, b := range bufs {
		if len(crs[i]) != len(epses) {
			return fmt.Errorf("baselines: buffer %d has %d ratios for %d bounds", i, len(crs[i]), len(epses))
		}
		for j, eps := range epses {
			feats, err := p.cache.Features(b, eps)
			if err != nil {
				return err
			}
			samples = append(samples, core.Sample{Features: feats, CR: crs[i][j]})
		}
	}
	est, err := core.TrainGrouped(samples, fieldGroups(bufs, len(epses)), p.Cfg)
	if err != nil {
		return err
	}
	p.est = est
	return nil
}

// Predict implements Method.
func (p *Proposed) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	if p.est == nil {
		return 0, ErrUntrained
	}
	feats, err := p.cache.Features(buf, eps)
	if err != nil {
		return 0, err
	}
	e, err := p.est.Estimate(feats)
	if err != nil {
		return 0, err
	}
	return e.CR, nil
}

// Interval exposes the conformal interval for a buffer, used by the
// Fig. 6 reproduction.
func (p *Proposed) Interval(buf *grid.Buffer, eps float64) (core.Estimate, error) {
	if p.est == nil {
		return core.Estimate{}, ErrUntrained
	}
	feats, err := p.cache.Features(buf, eps)
	if err != nil {
		return core.Estimate{}, err
	}
	return p.est.Estimate(feats)
}

// Estimator exposes the trained core estimator (nil before Fit).
func (p *Proposed) Estimator() *core.Estimator { return p.est }

// ConcurrentPredictSafe implements ConcurrentPredictor: the sharded
// singleflight feature cache makes Predict race-free after Fit.
func (p *Proposed) ConcurrentPredictSafe() bool { return true }

// Warm fills the feature cache for every buffer × bound pair across a
// bounded worker pool (workers <= 0 selects GOMAXPROCS), so a subsequent
// Fit or k-fold pass finds every feature precomputed instead of faulting
// them in serially.
func (p *Proposed) Warm(bufs []*grid.Buffer, epses []float64, workers int) error {
	return p.cache.Warm(bufs, epses, workers)
}

// WarmContext is Warm with cooperative cancellation: workers stop claiming
// buffers once ctx is done and the call returns an error matching
// crerr.ErrCanceled after draining.
func (p *Proposed) WarmContext(ctx context.Context, bufs []*grid.Buffer, epses []float64, workers int) error {
	return p.cache.WarmContext(ctx, bufs, epses, workers)
}

// logCR is the training target: the log of the ratio clamped to
// (0, core.DefaultCRCap].
func logCR(cr float64) float64 {
	if cr > core.DefaultCRCap {
		cr = core.DefaultCRCap
	}
	if cr < 1e-9 {
		cr = 1e-9
	}
	return math.Log(cr)
}
