// Package mixreg implements the mixture-of-linear-regressions model of
// §IV-B1, fitted by expectation-maximization with k-means initialization
// and a ridge-regularized weighted-least-squares M-step. The latent class
// count L is a hyperparameter selected with k-means (silhouette) when not
// fixed, exactly as the paper prescribes.
package mixreg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/kmeans"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/stats"
)

// The EM settings: selectMaxL caps the k-means selection of the
// component count, ridge is the M-step L2 regularization, maxIter caps
// the EM iterations and tol is the relative log-likelihood convergence
// threshold.
const (
	selectMaxL = 4
	ridge      = 1e-6
	maxIter    = 200
	tol        = 1e-8
)

// Config tunes the EM fit.
type Config struct {
	// L fixes the number of latent components; 0 selects it with k-means
	// silhouette up to selectMaxL.
	L int
	// Seed drives the deterministic initialization.
	Seed int64
}

// Model is a fitted mixture of linear regressions: component weights π_l,
// per-component coefficients β_l (intercept first) and noise σ_l. The
// per-component covariate distributions (XMean, XVar) act as a generative
// gate at prediction time: a new point is routed to the components whose
// covariate region it falls in, which is what makes the mixture effective
// on heterogeneous multi-field data (§IV-B1's grouping effects).
type Model struct {
	L     int
	D     int // number of covariates
	Pi    []float64
	Beta  [][]float64 // L × (D+1), β[l][0] is the intercept
	Sigma []float64
	// XMean and XVar are the responsibility-weighted per-component
	// covariate means and (diagonal) variances used for gating.
	XMean [][]float64
	XVar  [][]float64
	// LogLik is the final training log-likelihood.
	LogLik float64
	// Iterations is the number of EM iterations performed.
	Iterations int
}

// ErrNoData reports an empty training set.
var ErrNoData = errors.New("mixreg: no training data")

// Fit trains the mixture on covariate rows X and targets y.
func Fit(x [][]float64, y []float64, cfg Config) (*Model, error) {
	return FitContext(context.Background(), x, y, cfg)
}

// FitContext is Fit with cooperative cancellation: the context is checked
// before every EM iteration, so a cancelled training run returns within
// one iteration with an error matching crerr.ErrCanceled.
func FitContext(ctx context.Context, x [][]float64, y []float64, cfg Config) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, ErrNoData
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("mixreg: row %d has %d covariates, want %d", i, len(row), d)
		}
	}

	l := cfg.L
	if l <= 0 {
		l = selectL(x, y, cfg)
	}
	// Each component estimates d+2 parameters (coefficients, intercept,
	// variance); cap L so every component can see at least twice that
	// many points on average, preventing degenerate fits on small folds.
	if maxL := n / (2 * (d + 2)); l > maxL {
		l = maxL
	}
	if l < 1 {
		l = 1
	}
	if l > n {
		l = n
	}

	m := &Model{L: l, D: d,
		Pi:    make([]float64, l),
		Beta:  make([][]float64, l),
		Sigma: make([]float64, l),
		XMean: make([][]float64, l),
		XVar:  make([][]float64, l),
	}
	// Responsibilities from k-means on the joint (x, y) space.
	resp := initResponsibilities(x, y, l, cfg.Seed)

	sigmaFloor := 1e-6*stats.StdDev(y) + 1e-12
	prevLL := math.Inf(-1)
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, crerr.Canceled(err)
		}
		// M-step: weighted ridge regression per component, plus the
		// covariate moments of the gating distribution.
		for c := 0; c < l; c++ {
			beta, sigma, weight := wls(x, y, resp, c, sigmaFloor)
			m.Beta[c] = beta
			m.Sigma[c] = sigma
			m.Pi[c] = weight / float64(n)
			m.XMean[c], m.XVar[c] = weightedMoments(x, resp, c)
		}
		normalizePi(m.Pi)

		// E-step and log-likelihood.
		ll := 0.0
		for i := range x {
			var total float64
			dens := make([]float64, l)
			for c := 0; c < l; c++ {
				dens[c] = m.Pi[c] * normalPDF(y[i], m.mean(c, x[i]), m.Sigma[c])
				total += dens[c]
			}
			if total <= 0 || math.IsNaN(total) {
				// Degenerate point: spread responsibility evenly.
				for c := 0; c < l; c++ {
					resp[i][c] = 1 / float64(l)
				}
				ll += math.Log(1e-300)
				continue
			}
			for c := 0; c < l; c++ {
				resp[i][c] = dens[c] / total
			}
			ll += math.Log(total)
		}
		m.LogLik = ll
		m.Iterations = iter
		if iter > 1 && math.Abs(ll-prevLL) <= tol*(math.Abs(prevLL)+1) {
			break
		}
		prevLL = ll
	}
	return m, nil
}

// Degenerate reports whether the fitted model is numerically unusable:
// any non-finite mixture weight, coefficient, noise scale or gating
// moment, or a NaN final log-likelihood. Callers (core.Train) fall back
// to a single-component linear fit when EM degenerates.
func (m *Model) Degenerate() bool {
	if m.L < 1 || math.IsNaN(m.LogLik) {
		return true
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for c := 0; c < m.L; c++ {
		if !finite(m.Pi[c]) || !finite(m.Sigma[c]) || m.Sigma[c] <= 0 {
			return true
		}
		for _, b := range m.Beta[c] {
			if !finite(b) {
				return true
			}
		}
		for j := range m.XMean[c] {
			if !finite(m.XMean[c][j]) || !finite(m.XVar[c][j]) {
				return true
			}
		}
	}
	return false
}

// selectL chooses the latent class count with k-means silhouette over the
// joint standardized (x, y) space (§IV-B1).
func selectL(x [][]float64, y []float64, cfg Config) int {
	pts := joint(x, y)
	return kmeans.SelectK(pts, selectMaxL, 0.25, cfg.Seed)
}

// joint builds standardized (x, y) points for clustering.
func joint(x [][]float64, y []float64) [][]float64 {
	n := len(x)
	d := len(x[0])
	pts := make([][]float64, n)
	// Column standardization so no covariate dominates the metric.
	means := make([]float64, d+1)
	stds := make([]float64, d+1)
	for j := 0; j < d; j++ {
		col := make([]float64, n)
		for i := range x {
			col[i] = x[i][j]
		}
		means[j], stds[j] = stats.MeanStd(col)
	}
	means[d], stds[d] = stats.MeanStd(y)
	for j := range stds {
		if stds[j] == 0 {
			stds[j] = 1
		}
	}
	for i := range x {
		p := make([]float64, d+1)
		for j := 0; j < d; j++ {
			p[j] = (x[i][j] - means[j]) / stds[j]
		}
		p[d] = (y[i] - means[d]) / stds[d]
		pts[i] = p
	}
	return pts
}

func initResponsibilities(x [][]float64, y []float64, l int, seed int64) [][]float64 {
	n := len(x)
	resp := make([][]float64, n)
	labels := kmeans.Fit(joint(x, y), l, seed).Labels
	for i := range resp {
		resp[i] = make([]float64, l)
		// Soft assignment: 0.9 to the k-means cluster, rest spread.
		for c := 0; c < l; c++ {
			resp[i][c] = 0.1 / float64(l)
		}
		resp[i][labels[i]] += 0.9
	}
	return resp
}

// wls solves the responsibility-weighted ridge regression for component c
// and returns (β, σ, total weight).
func wls(x [][]float64, y []float64, resp [][]float64, c int, sigmaFloor float64) ([]float64, float64, float64) {
	d := len(x[0])
	p := d + 1
	ata := linalg.NewMatrix(p, p)
	atb := make([]float64, p)
	var weight float64
	row := make([]float64, p)
	for i := range x {
		w := resp[i][c]
		if w <= 0 {
			continue
		}
		weight += w
		row[0] = 1
		copy(row[1:], x[i])
		for a := 0; a < p; a++ {
			wa := w * row[a]
			atb[a] += wa * y[i]
			r := ata.Row(a)
			for bI := 0; bI < p; bI++ {
				r[bI] += wa * row[bI]
			}
		}
	}
	scale := weight
	if scale <= 0 {
		scale = 1
	}
	for a := 0; a < p; a++ {
		ata.Add(a, a, ridge*scale)
	}
	beta, err := linalg.SolveSPD(ata, atb)
	if err != nil {
		beta = make([]float64, p) // fall back to the zero model
	}
	// Weighted residual variance.
	var rss float64
	for i := range x {
		w := resp[i][c]
		if w <= 0 {
			continue
		}
		pred := beta[0]
		for j := 0; j < d; j++ {
			pred += beta[j+1] * x[i][j]
		}
		r := y[i] - pred
		rss += w * r * r
	}
	sigma := sigmaFloor
	if weight > 0 {
		sigma = math.Max(math.Sqrt(rss/weight), sigmaFloor)
	}
	return beta, sigma, weight
}

// weightedMoments returns the responsibility-weighted mean and diagonal
// variance of the covariates for component c, floored for stability.
func weightedMoments(x [][]float64, resp [][]float64, c int) (mean, variance []float64) {
	d := len(x[0])
	mean = make([]float64, d)
	variance = make([]float64, d)
	var weight float64
	for i := range x {
		w := resp[i][c]
		weight += w
		for j, v := range x[i] {
			mean[j] += w * v
		}
	}
	if weight <= 0 {
		for j := range variance {
			variance[j] = 1
		}
		return mean, variance
	}
	for j := range mean {
		mean[j] /= weight
	}
	for i := range x {
		w := resp[i][c]
		for j, v := range x[i] {
			diff := v - mean[j]
			variance[j] += w * diff * diff
		}
	}
	for j := range variance {
		variance[j] = variance[j]/weight + 1e-4 // floor: gate stays proper
	}
	return mean, variance
}

func normalizePi(pi []float64) {
	var s float64
	for _, v := range pi {
		s += v
	}
	if s <= 0 {
		for i := range pi {
			pi[i] = 1 / float64(len(pi))
		}
		return
	}
	for i := range pi {
		pi[i] /= s
	}
}

func normalPDF(y, mu, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (y - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// mean returns the component-c regression mean for covariates x.
func (m *Model) mean(c int, x []float64) float64 {
	pred := m.Beta[c][0]
	for j := 0; j < m.D; j++ {
		pred += m.Beta[c][j+1] * x[j]
	}
	return pred
}

// Gate returns the posterior component weights for covariates x,
// π_l(x) ∝ π_l·N(x; μ_l, diag σ_l²). When every component's density
// underflows (far extrapolation) the prior weights are returned.
func (m *Model) Gate(x []float64) []float64 {
	w := make([]float64, m.L)
	// Log-domain for numerical stability.
	logw := make([]float64, m.L)
	maxLog := math.Inf(-1)
	for c := 0; c < m.L; c++ {
		lw := math.Log(math.Max(m.Pi[c], 1e-300))
		for j := 0; j < m.D; j++ {
			v := m.XVar[c][j]
			diff := x[j] - m.XMean[c][j]
			lw += -0.5*diff*diff/v - 0.5*math.Log(2*math.Pi*v)
		}
		logw[c] = lw
		if lw > maxLog {
			maxLog = lw
		}
	}
	if math.IsInf(maxLog, -1) || math.IsNaN(maxLog) {
		copy(w, m.Pi)
		return w
	}
	var total float64
	for c := 0; c < m.L; c++ {
		w[c] = math.Exp(logw[c] - maxLog)
		total += w[c]
	}
	for c := range w {
		w[c] /= total
	}
	return w
}

// Predict returns the gated mixture conditional mean
// E[y|x] = Σ_l π_l(x)·(β_l·x).
func (m *Model) Predict(x []float64) float64 {
	gate := m.Gate(x)
	var out float64
	for c := 0; c < m.L; c++ {
		out += gate[c] * m.mean(c, x)
	}
	return out
}
