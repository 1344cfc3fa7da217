// Package conformal implements split conformal prediction (Algorithm 1 of
// the paper): the training data is divided into a proper training set and
// a calibration set, a point-prediction model is fitted on the former, and
// the (1−λ) quantile of the absolute calibration residuals widens every
// subsequent point estimate into a distribution-free prediction interval
// with marginal coverage ≥ 1−λ.
package conformal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Predictor is any point-prediction model (the mixture regression in the
// paper's pipeline).
type Predictor interface {
	Predict(x []float64) float64
}

// Fitter trains a Predictor on a subset of the data; it is invoked once on
// the proper training split.
type Fitter func(x [][]float64, y []float64) (Predictor, error)

// Interval is a conformal prediction interval around a point estimate.
type Interval struct {
	Point, Lo, Hi float64
}

// Contains reports whether y lies in [Lo, Hi].
func (iv Interval) Contains(y float64) bool { return y >= iv.Lo && y <= iv.Hi }

// Config tunes the split.
type Config struct {
	// Lambda is the miscoverage level (default 0.05 for 95% intervals).
	Lambda float64
	// CalibFraction of the data goes to the calibration set
	// (default 0.3).
	CalibFraction float64
	// Seed drives the deterministic split shuffle.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Lambda <= 0 || c.Lambda >= 1 {
		c.Lambda = 0.05
	}
	if c.CalibFraction <= 0 || c.CalibFraction >= 1 {
		c.CalibFraction = 0.3
	}
	return c
}

// Model is a calibrated conformal predictor.
type Model struct {
	inner  Predictor
	radius float64 // R̃_λ, the calibration residual quantile
	lambda float64
	nCalib int
}

// ErrTooFewSamples reports a training set too small to split.
var ErrTooFewSamples = errors.New("conformal: need at least 4 samples")

// Fit performs Algorithm 1 stages 1–5: split, train, compute and sort
// calibration residuals, and extract the (1−λ) quantile
// R̃_(k), k = ⌈(1−λ)(m+1)⌉.
func Fit(x [][]float64, y []float64, fit Fitter, cfg Config) (*Model, error) {
	return FitGrouped(x, y, nil, fit, cfg)
}

// FitGrouped is Fit with an exchangeability unit coarser than a row: when
// groups are provided (e.g. the source field of each training buffer), the
// calibration set is whole held-out groups, so the calibration residuals
// include the group-to-group shift. This is what keeps the coverage
// guarantee meaningful for the paper's out-of-sample (cross-field)
// prediction: a future unseen field is exchangeable with held-out
// calibration fields, not with held-out rows. With nil groups or a single
// group, the standard row split is used.
func FitGrouped(x [][]float64, y []float64, groups []int, fit Fitter, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	n := len(x)
	if n != len(y) {
		return nil, fmt.Errorf("conformal: %d covariate rows vs %d targets", n, len(y))
	}
	if groups != nil && len(groups) != n {
		return nil, fmt.Errorf("conformal: %d group labels vs %d rows", len(groups), n)
	}
	if n < 4 {
		return nil, ErrTooFewSamples
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var calIdx, trainIdx []int
	if distinct := distinctGroups(groups); len(distinct) >= 2 {
		gperm := rng.Perm(len(distinct))
		nCalG := int(math.Round(cfg.CalibFraction * float64(len(distinct))))
		if nCalG < 1 {
			nCalG = 1
		}
		if nCalG > len(distinct)-1 {
			nCalG = len(distinct) - 1
		}
		calGroups := make(map[int]bool, nCalG)
		for _, gi := range gperm[:nCalG] {
			calGroups[distinct[gi]] = true
		}
		for i, g := range groups {
			if calGroups[g] {
				calIdx = append(calIdx, i)
			} else {
				trainIdx = append(trainIdx, i)
			}
		}
	} else {
		idx := rng.Perm(n)
		nCal := int(math.Round(cfg.CalibFraction * float64(n)))
		if nCal < 1 {
			nCal = 1
		}
		if nCal > n-2 {
			nCal = n - 2
		}
		calIdx, trainIdx = idx[:nCal], idx[nCal:]
	}

	tx := make([][]float64, len(trainIdx))
	ty := make([]float64, len(trainIdx))
	for i, j := range trainIdx {
		tx[i], ty[i] = x[j], y[j]
	}
	inner, err := fit(tx, ty)
	if err != nil {
		return nil, fmt.Errorf("conformal: inner fit: %w", err)
	}

	res := make([]float64, len(calIdx))
	for i, j := range calIdx {
		res[i] = math.Abs(y[j] - inner.Predict(x[j]))
	}
	sort.Float64s(res)
	m := len(res)
	k := int(math.Ceil((1 - cfg.Lambda) * float64(m+1)))
	if k > m {
		// Not enough calibration points for the requested level: the
		// interval must be conservative (infinite in theory); we use the
		// maximum residual, the standard finite-sample fallback.
		k = m
	}
	return &Model{inner: inner, radius: res[k-1], lambda: cfg.Lambda, nCalib: m}, nil
}

// distinctGroups returns the distinct labels in first-appearance order.
func distinctGroups(groups []int) []int {
	if groups == nil {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, g := range groups {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// Restore reconstructs a calibrated model from persisted parameters —
// the inverse of the accessors below, used by the snapshot layer. It
// performs no validation beyond what the accessors guarantee; callers
// (core.FromState) validate the decoded state before restoring.
func Restore(inner Predictor, radius, lambda float64, nCalib int) *Model {
	return &Model{inner: inner, radius: radius, lambda: lambda, nCalib: nCalib}
}

// Inner returns the wrapped point predictor, so the snapshot layer can
// reach the mixture components behind the conformal wrapper.
func (m *Model) Inner() Predictor { return m.inner }

// Ensemble builds the multi-split mean-ensemble point predictor over
// parts — the predictor shape FitMultiSplit produces — so a snapshot of a
// multi-split model can be reassembled.
func Ensemble(parts []Predictor) Predictor {
	cp := make([]Predictor, len(parts))
	copy(cp, parts)
	return ensemblePredictor{parts: cp}
}

// EnsembleParts returns the member predictors when p is a multi-split
// ensemble, and (nil, false) for any other predictor.
func EnsembleParts(p Predictor) ([]Predictor, bool) {
	e, ok := p.(ensemblePredictor)
	if !ok {
		return nil, false
	}
	out := make([]Predictor, len(e.parts))
	copy(out, e.parts)
	return out, true
}

// Radius returns R̃_λ, the half-width added around point estimates.
func (m *Model) Radius() float64 { return m.radius }

// Lambda returns the configured miscoverage level.
func (m *Model) Lambda() float64 { return m.lambda }

// CalibrationSize returns the number of calibration residuals used.
func (m *Model) CalibrationSize() int { return m.nCalib }

// Predict performs Algorithm 1 stage 6: Ĉ(x) = [f̂(x) − R̃_λ, f̂(x) + R̃_λ].
func (m *Model) Predict(x []float64) Interval {
	p := m.inner.Predict(x)
	return Interval{Point: p, Lo: p - m.radius, Hi: p + m.radius}
}

// FitMultiSplit runs nSplits independent split-conformal fits with
// different split seeds and combines them by the median radius and the
// ensemble-mean point predictor — the multi-split stabilization of Solari
// & Djordjilović the paper cites [32]. It trades nSplits× training cost
// for a radius that does not hinge on one lucky or unlucky split.
func FitMultiSplit(x [][]float64, y []float64, groups []int, fit Fitter, cfg Config, nSplits int) (*Model, error) {
	if nSplits < 1 {
		nSplits = 1
	}
	models := make([]*Model, 0, nSplits)
	radii := make([]float64, 0, nSplits)
	for s := 0; s < nSplits; s++ {
		c := cfg
		c.Seed = cfg.Seed + int64(s)*1_000_003
		m, err := FitGrouped(x, y, groups, fit, c)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
		radii = append(radii, m.radius)
	}
	sort.Float64s(radii)
	// True median: for an even number of splits the two middle radii are
	// averaged — indexing radii[n/2] alone picks the *upper* middle
	// element and biases the combined radius wide.
	median := radii[len(radii)/2]
	if n := len(radii); n%2 == 0 {
		median = (radii[n/2-1] + radii[n/2]) / 2
	}
	inner := ensemblePredictor{parts: make([]Predictor, len(models))}
	for i, m := range models {
		inner.parts[i] = m.inner
	}
	var nCal int
	for _, m := range models {
		nCal += m.nCalib
	}
	return &Model{inner: inner, radius: median, lambda: models[0].lambda, nCalib: nCal / len(models)}, nil
}

// ensemblePredictor averages the point predictions of the split models.
type ensemblePredictor struct {
	parts []Predictor
}

// Predict implements Predictor.
func (e ensemblePredictor) Predict(x []float64) float64 {
	var s float64
	for _, p := range e.parts {
		s += p.Predict(x)
	}
	return s / float64(len(e.parts))
}

// Coverage returns the fraction of (x, y) pairs whose interval contains y,
// used to validate the ≥ 1−λ guarantee empirically (§VI-D).
func (m *Model) Coverage(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	hits := 0
	for i := range x {
		if m.Predict(x[i]).Contains(y[i]) {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}
