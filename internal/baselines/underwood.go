package baselines

import (
	"fmt"
	"math"
	"sync"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/stats"
)

// Underwood is the black-box statistical baseline of Underwood et al.
// (§III): an ordinary least-squares linear model of log(CR) on two
// predictors — the SVD truncation of the block covariance and the
// quantized entropy of the buffer. Accurate in-sample, but the unguarded
// linear extrapolation on the log scale is what produces the enormous
// out-of-field errors the paper reports in Table II.
type Underwood struct {
	// PredCfg configures the block decomposition used for SVD truncation.
	PredCfg predictors.Config
	// CRCap clamps training ratios (default 100, matching the protocol).
	CRCap float64

	beta []float64 // intercept + 2 coefficients; nil before Fit

	mu  sync.Mutex // guards svd against concurrent Predict calls
	svd map[*grid.Buffer]float64
}

// NewUnderwood returns the Underwood baseline with default parameters.
func NewUnderwood() *Underwood {
	return &Underwood{PredCfg: predictors.Config{}, CRCap: 100, svd: make(map[*grid.Buffer]float64)}
}

// Name implements Method.
func (u *Underwood) Name() string { return "underwood" }

// features computes [svd-trunc, quantized entropy] for one buffer. The
// SVD truncation runs through the unfused per-metric path — the original
// computes its metrics standalone, which is exactly the runtime gap the
// paper's "1.42× faster to train" claim measures. Results are cached per
// buffer like the real implementation would.
func (u *Underwood) features(buf *grid.Buffer, eps float64) ([2]float64, error) {
	u.mu.Lock()
	trunc, ok := u.svd[buf]
	u.mu.Unlock()
	if !ok {
		t, err := predictors.NaiveCovSVDTrunc(buf, u.PredCfg)
		if err != nil {
			return [2]float64{}, err
		}
		trunc = t
		u.mu.Lock()
		u.svd[buf] = trunc
		u.mu.Unlock()
	}
	qe := stats.QuantizedEntropy(buf.Data, eps)
	return [2]float64{trunc, qe}, nil
}

// ConcurrentPredictSafe implements ConcurrentPredictor: the SVD memo is
// mutex-guarded and the fitted coefficients are read-only after Fit.
func (u *Underwood) ConcurrentPredictSafe() bool { return true }

// Fit implements Method with an OLS solve of the 3-parameter model.
func (u *Underwood) Fit(bufs []*grid.Buffer, crs []float64, eps float64) error {
	multi := make([][]float64, len(bufs))
	for i := range bufs {
		multi[i] = []float64{crs[i]}
	}
	return u.fitRows(bufs, multi, []float64{eps})
}

// FitMulti trains across several error bounds: crs[i][j] is the ratio of
// bufs[i] at epses[j].
func (u *Underwood) FitMulti(bufs []*grid.Buffer, crs [][]float64, epses []float64) error {
	return u.fitRows(bufs, crs, epses)
}

func (u *Underwood) fitRows(bufs []*grid.Buffer, crs [][]float64, epses []float64) error {
	if len(bufs) != len(crs) {
		return fmt.Errorf("baselines: %d buffers vs %d ratio rows", len(bufs), len(crs))
	}
	const p = 3
	ata := linalg.NewMatrix(p, p)
	atb := make([]float64, p)
	for i, b := range bufs {
		if len(crs[i]) != len(epses) {
			return fmt.Errorf("baselines: buffer %d has %d ratios for %d bounds", i, len(crs[i]), len(epses))
		}
		for j, eps := range epses {
			f, err := u.features(b, eps)
			if err != nil {
				return err
			}
			row := [p]float64{1, f[0], f[1]}
			y := logCR(crs[i][j], u.CRCap)
			for a := 0; a < p; a++ {
				atb[a] += row[a] * y
				for c := 0; c < p; c++ {
					ata.Add(a, c, row[a]*row[c])
				}
			}
		}
	}
	for a := 0; a < p; a++ {
		ata.Add(a, a, 1e-9)
	}
	beta, err := linalg.SolveSPD(ata, atb)
	if err != nil {
		return err
	}
	u.beta = beta
	return nil
}

// Predict implements Method.
func (u *Underwood) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	if u.beta == nil {
		return 0, ErrUntrained
	}
	f, err := u.features(buf, eps)
	if err != nil {
		return 0, err
	}
	y := u.beta[0] + u.beta[1]*f[0] + u.beta[2]*f[1]
	// Deliberately no clamp: the original provides raw point estimates,
	// which is the failure mode Table II exposes out-of-sample.
	return math.Exp(y), nil
}
