// Package core assembles the paper's primary contribution: a
// compressibility estimator that maps the five statistical predictors of
// internal/predictors through a mixture-of-linear-regressions model
// (internal/mixreg) wrapped in split conformal prediction
// (internal/conformal), producing a point estimate and a statistically
// valid interval for the compression ratio of an error-bounded lossy
// compressor on a buffer — without running the compressor.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/mixreg"
	"github.com/crestlab/crest/internal/parallel"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/stats"
)

// DefaultCRCap caps compression ratios in training, estimates and
// scoring; the paper focuses on CR ≤ 100 as the operational regime
// (§IV-B).
const DefaultCRCap = 100

// Config tunes the full estimation pipeline.
type Config struct {
	// Predictors configures the feature computation.
	Predictors predictors.Config
	// Mixture configures the regression mixture.
	Mixture mixreg.Config
	// Conformal configures the interval calibration.
	Conformal conformal.Config
	// FeatureMask enables a subset of the five features; nil enables all.
	// Used by the Fig. 1 ablation study.
	FeatureMask []bool
	// ConformalSplits > 1 enables multi-split conformal prediction
	// (median radius over independent splits); default 1 (single split).
	ConformalSplits int
}

// Sample is one training observation: the covariates of a buffer at an
// error bound, plus the observed compression ratio.
type Sample struct {
	Features []float64
	CR       float64
}

// Estimate is a conformal compression-ratio estimate: the point value and
// a (1−λ) interval, all on the CR scale.
type Estimate struct {
	CR, Lo, Hi float64
}

// Contains reports whether the true ratio lies in the interval.
func (e Estimate) Contains(cr float64) bool { return cr >= e.Lo && cr <= e.Hi }

// Estimator is a trained compressibility model for one (compressor, error
// bound regime) pairing.
type Estimator struct {
	cfg   Config
	model *conformal.Model
	// Standardization parameters of the masked feature space.
	mask  []bool
	mean  []float64
	std   []float64
	nKept int
	// fellBack is true when at least one mixture fit degenerated and the
	// estimator was trained on the single-component linear fallback.
	fellBack bool
	// online, when non-nil, carries the rolling-coverage recalibration
	// wrapper; Estimate and IntervalRadius then use its dynamic radius.
	online *conformal.OnlineModel
}

// FellBack reports whether EM degenerated during training and the
// estimator fell back to a single-component linear fit. The estimator is
// still usable — intervals remain conformally valid — but the mixture's
// grouping effects are lost, which callers may want to surface.
func (e *Estimator) FellBack() bool { return e.fellBack }

// ErrNoSamples reports an empty training set.
var ErrNoSamples = errors.New("core: no training samples")

// Train fits the mixture + conformal pipeline on the samples.
func Train(samples []Sample, cfg Config) (*Estimator, error) {
	return TrainGrouped(samples, nil, cfg)
}

// TrainContext is Train with cooperative cancellation: the context is
// propagated into every EM iteration, so a cancelled training run returns
// promptly with an error matching crerr.ErrCanceled.
func TrainContext(ctx context.Context, samples []Sample, cfg Config) (*Estimator, error) {
	return TrainGroupedContext(ctx, samples, nil, cfg)
}

// TrainGrouped is Train with an exchangeability group label per sample
// (typically the source field): conformal calibration then holds out whole
// groups, keeping the coverage guarantee meaningful for out-of-field
// prediction (§VI-C/§VI-D).
func TrainGrouped(samples []Sample, groups []int, cfg Config) (*Estimator, error) {
	return TrainGroupedContext(context.Background(), samples, groups, cfg)
}

// TrainGroupedContext is TrainGrouped with cancellation and graceful EM
// degradation: when the mixture fit fails or produces a numerically
// degenerate model, training falls back to a single-component linear fit
// (flagged via Estimator.FellBack) instead of failing the whole pipeline;
// only when even the fallback cannot fit does it return an error matching
// crerr.ErrModelDegenerate.
func TrainGroupedContext(ctx context.Context, samples []Sample, groups []int, cfg Config) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	d := len(samples[0].Features)
	mask := cfg.FeatureMask
	if mask == nil {
		mask = make([]bool, d)
		for i := range mask {
			mask[i] = true
		}
	}
	if len(mask) != d {
		return nil, fmt.Errorf("core: feature mask length %d != %d features", len(mask), d)
	}
	nKept := 0
	for _, m := range mask {
		if m {
			nKept++
		}
	}
	if nKept == 0 {
		return nil, errors.New("core: feature mask disables every feature")
	}

	// Standardize kept features; targets are log(CR) with the CR cap.
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		if len(s.Features) != d {
			return nil, fmt.Errorf("core: sample %d has %d features, want %d", i, len(s.Features), d)
		}
		row := make([]float64, 0, nKept)
		for j, keep := range mask {
			if keep {
				row = append(row, s.Features[j])
			}
		}
		x[i] = row
		cr := s.CR
		if cr > DefaultCRCap {
			cr = DefaultCRCap
		}
		if cr <= 0 || math.IsNaN(cr) {
			return nil, fmt.Errorf("core: sample %d has invalid CR %g", i, s.CR)
		}
		y[i] = math.Log(cr)
	}
	mean := make([]float64, nKept)
	std := make([]float64, nKept)
	col := make([]float64, len(x))
	for j := 0; j < nKept; j++ {
		for i := range x {
			col[i] = x[i][j]
		}
		mean[j], std[j] = stats.MeanStd(col)
		if std[j] == 0 {
			std[j] = 1
		}
	}
	for i := range x {
		for j := 0; j < nKept; j++ {
			x[i][j] = (x[i][j] - mean[j]) / std[j]
		}
	}

	// fellBack is set from inside the fitter, which multi-split conformal
	// may invoke once per split; atomic keeps the flag race-free should a
	// future conformal implementation fit splits concurrently.
	var fellBack atomic.Bool
	fitter := func(tx [][]float64, ty []float64) (conformal.Predictor, error) {
		return fitWithFallback(ctx, tx, ty, cfg.Mixture, mixreg.FitContext, &fellBack)
	}
	ccfg := cfg.Conformal
	if ccfg.CalibFraction == 0 && len(samples) < 30 {
		// Small training sets: keep more points for the regression; the
		// interval is correspondingly more conservative.
		ccfg.CalibFraction = 0.25
	}
	var cm *conformal.Model
	var err error
	if cfg.ConformalSplits > 1 {
		cm, err = conformal.FitMultiSplit(x, y, groups, fitter, ccfg, cfg.ConformalSplits)
	} else {
		cm, err = conformal.FitGrouped(x, y, groups, fitter, ccfg)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Estimator{cfg: cfg, model: cm, mask: mask, mean: mean, std: std,
		nKept: nKept, fellBack: fellBack.Load()}, nil
}

// fitFunc matches mixreg.FitContext; injectable so the degradation path
// can be driven deterministically in tests.
type fitFunc func(context.Context, [][]float64, []float64, mixreg.Config) (*mixreg.Model, error)

// fitWithFallback is the graceful-degradation policy of training: try the
// configured mixture fit; when it fails or produces a numerically
// degenerate model, refit with a single linear component (L=1 EM is one
// ridge regression) and record the fallback. Cancellation propagates
// untouched — it is not a degeneracy. Only when even the fallback is
// degenerate does the fit fail, classified under crerr.ErrModelDegenerate.
func fitWithFallback(ctx context.Context, tx [][]float64, ty []float64, mcfg mixreg.Config, fit fitFunc, fellBack *atomic.Bool) (conformal.Predictor, error) {
	m, err := fit(ctx, tx, ty, mcfg)
	if err == nil && !m.Degenerate() {
		return m, nil
	}
	if err != nil && errors.Is(err, crerr.ErrCanceled) {
		return nil, err
	}
	fbCfg := mcfg
	fbCfg.L = 1
	fb, fbErr := fit(ctx, tx, ty, fbCfg)
	if fbErr != nil {
		return nil, fbErr
	}
	if fb.Degenerate() {
		if err == nil {
			err = errors.New("mixture fit degenerated")
		}
		return nil, fmt.Errorf("%w: %v", crerr.ErrModelDegenerate, err)
	}
	fellBack.Store(true)
	return fb, nil
}

// standardize masks and standardizes one feature vector.
func (e *Estimator) standardize(features []float64) ([]float64, error) {
	if len(features) != len(e.mask) {
		return nil, fmt.Errorf("core: %w: %d features, want %d", crerr.ErrInvalidBuffer, len(features), len(e.mask))
	}
	row := make([]float64, 0, e.nKept)
	for j, keep := range e.mask {
		if keep {
			row = append(row, features[j])
		}
	}
	for j := range row {
		row[j] = (row[j] - e.mean[j]) / e.std[j]
	}
	return row, nil
}

// Estimate predicts the compression ratio and its conformal interval for
// one covariate vector, back-transforming from the log scale and clamping
// to [1, DefaultCRCap] on the point estimate's natural range.
func (e *Estimator) Estimate(features []float64) (Estimate, error) {
	for i, v := range features {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Estimate{}, fmt.Errorf("core: %w: feature %d is %g", crerr.ErrNonFiniteData, i, v)
		}
	}
	row, err := e.standardize(features)
	if err != nil {
		return Estimate{}, err
	}
	var iv conformal.Interval
	if e.online != nil {
		iv = e.online.Predict(row)
	} else {
		iv = e.model.Predict(row)
	}
	// The model is trained on CR ∈ (0, DefaultCRCap]; predictions
	// outside that range are extrapolations, so the point estimate is
	// clamped to the training regime (the interval keeps its raw width).
	point := math.Exp(iv.Point)
	if point > DefaultCRCap {
		point = DefaultCRCap
	}
	if point < 1 {
		point = 1
	}
	return Estimate{
		CR: point,
		Lo: math.Exp(iv.Lo),
		Hi: math.Exp(iv.Hi),
	}, nil
}

// IntervalRadius returns the conformal half-width on the log(CR) scale —
// the rolling recalibrated radius when online recalibration is enabled.
func (e *Estimator) IntervalRadius() float64 {
	if e.online != nil {
		return e.online.Radius()
	}
	return e.model.Radius()
}

// EnableOnlineRecalibration wraps the estimator's conformal model with a
// rolling-coverage tracker (conformal.OnlineModel): subsequent Estimate
// calls use the dynamic radius, and ObserveActual feeds ground truth into
// the tracker. Call once, before serving traffic; it replaces any prior
// online wrapper (resetting the window), including one restored from a
// snapshot — check OnlineRecalibrationEnabled first to resume instead.
func (e *Estimator) EnableOnlineRecalibration(cfg conformal.OnlineConfig) {
	e.online = conformal.NewOnline(e.model, cfg)
}

// OnlineRecalibrationEnabled reports whether a rolling tracker is
// installed, either via EnableOnlineRecalibration or restored from a
// snapshot that captured one.
func (e *Estimator) OnlineRecalibrationEnabled() bool { return e.online != nil }

// OnlineStats returns the rolling tracker snapshot, or (zero, false) when
// online recalibration is not enabled.
func (e *Estimator) OnlineStats() (conformal.OnlineStats, bool) {
	if e.online == nil {
		return conformal.OnlineStats{}, false
	}
	return e.online.Stats(), true
}

// ObserveActual records the observed compression ratio for a previously
// estimated feature vector, updating the rolling coverage and possibly
// recalibrating the interval radius. The CR is capped and mapped to the
// log scale exactly as in training, so residuals are commensurate with
// the calibration residuals. Returns the post-update snapshot and whether
// this observation triggered a recalibration. It is an error to call
// before EnableOnlineRecalibration, or with a non-positive CR.
func (e *Estimator) ObserveActual(features []float64, actualCR float64) (conformal.OnlineStats, bool, error) {
	if e.online == nil {
		return conformal.OnlineStats{}, false, errors.New("core: online recalibration not enabled")
	}
	if actualCR <= 0 || math.IsNaN(actualCR) || math.IsInf(actualCR, 0) {
		return conformal.OnlineStats{}, false, fmt.Errorf("core: %w: observed CR %g", crerr.ErrNonFiniteData, actualCR)
	}
	for i, v := range features {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return conformal.OnlineStats{}, false, fmt.Errorf("core: %w: feature %d is %g", crerr.ErrNonFiniteData, i, v)
		}
	}
	row, err := e.standardize(features)
	if err != nil {
		return conformal.OnlineStats{}, false, err
	}
	cr := actualCR
	if cr > DefaultCRCap {
		cr = DefaultCRCap
	}
	st, recal := e.online.Observe(row, math.Log(cr))
	return st, recal, nil
}

// PredictorConfig returns the predictor configuration the estimator was
// trained with, so feature caches can be built to match.
func (e *Estimator) PredictorConfig() predictors.Config { return e.cfg.Predictors }

// Coverage returns the empirical interval coverage over samples, for
// comparison against the nominal 1−λ (§VI-D).
func (e *Estimator) Coverage(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	hits := 0
	for _, s := range samples {
		est, err := e.Estimate(s.Features)
		if err != nil {
			continue
		}
		cr := math.Min(s.CR, DefaultCRCap)
		if est.Contains(cr) {
			hits++
		}
	}
	return float64(hits) / float64(len(samples))
}

// FeaturesOf computes the model covariates for one buffer and error bound.
func FeaturesOf(buf *grid.Buffer, eps float64, cfg predictors.Config) ([]float64, error) {
	f, err := predictors.Compute(buf, eps, cfg)
	if err != nil {
		return nil, err
	}
	return f.Vector(), nil
}

// BuildSample computes both the covariates and the ground-truth CR by
// running the compressor once — the training-data collection step of
// Algorithm 2 lines 4–7. Compressor failures (including recovered panics)
// are classified under crerr.ErrCompressor.
func BuildSample(buf *grid.Buffer, comp compressors.Compressor, eps float64, cfg predictors.Config) (Sample, error) {
	feats, err := FeaturesOf(buf, eps, cfg)
	if err != nil {
		return Sample{}, err
	}
	cr, err := runCompressor(comp, buf, eps)
	if err != nil {
		return Sample{}, err
	}
	return Sample{Features: feats, CR: cr}, nil
}

// runCompressor runs the ground-truth compression with panic isolation:
// a compressor that panics on a pathological buffer yields a typed error
// instead of taking down the host process.
func runCompressor(comp compressors.Compressor, buf *grid.Buffer, eps float64) (cr float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = crerr.Recovered(v, crerr.ErrCompressor)
		}
	}()
	cr, err = compressors.Ratio(comp, buf, eps)
	if err != nil {
		err = fmt.Errorf("%w: %s: %v", crerr.ErrCompressor, comp.Name(), err)
	}
	return cr, err
}

// BuildSamples maps BuildSample over buffers across all cores; see
// BuildSamplesWorkers.
func BuildSamples(bufs []*grid.Buffer, comp compressors.Compressor, eps float64, cfg predictors.Config) ([]Sample, error) {
	return BuildSamplesWorkers(bufs, comp, eps, cfg, 0)
}

// BuildSamplesWorkers maps BuildSample over buffers on a bounded worker
// pool with dynamic scheduling (workers <= 0 selects GOMAXPROCS), so
// Algorithm 2's training-data collection — one compressor run plus one
// feature pass per buffer — scales with cores. Each sample lands in its
// own slot, keeping the output identical to the serial path. On failure
// every failing buffer index is reported (crerr.AggregateError).
func BuildSamplesWorkers(bufs []*grid.Buffer, comp compressors.Compressor, eps float64, cfg predictors.Config, workers int) ([]Sample, error) {
	return BuildSamplesContext(context.Background(), bufs, comp, eps, cfg, workers)
}

// BuildSamplesContext is BuildSamplesWorkers with cooperative
// cancellation: once ctx is done, workers finish their current buffer and
// drain, and the returned error matches crerr.ErrCanceled. Worker panics
// are recovered into per-buffer errors. Like the batch engine, failure is
// per-buffer: the samples of succeeding buffers are returned alongside the
// aggregate error (out[i] is valid exactly when the aggregate has no entry
// for i), so a caller may drop the failing buffers and train on the rest.
func BuildSamplesContext(ctx context.Context, bufs []*grid.Buffer, comp compressors.Compressor, eps float64, cfg predictors.Config, workers int) ([]Sample, error) {
	out := make([]Sample, len(bufs))
	errs := make([]error, len(bufs))
	cerr := parallel.ForEachDynamicCtx(ctx, len(bufs), workers, func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = crerr.Recovered(v, crerr.ErrCompressor)
			}
		}()
		s, err := BuildSample(bufs[i], comp, eps, cfg)
		if err != nil {
			b := bufs[i]
			errs[i] = fmt.Errorf("core: buffer %d (%s/%s step %d): %w", i, b.Dataset, b.Field, b.Step, err)
			return
		}
		out[i] = s
	})
	if cerr != nil {
		return out, crerr.Canceled(cerr)
	}
	return out, crerr.Aggregate(errs)
}
