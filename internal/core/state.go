package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/mixreg"
)

// EstimatorState is the complete serializable parameter set of a trained
// Estimator: the resolved feature mask and standardization moments, the
// conformal calibration (radius, miscoverage level, calibration size),
// the mixture components of the point predictor (one per conformal split;
// more than one means the multi-split mean ensemble), the FellBack flag
// and the training configuration. State and FromState are exact inverses
// for any trained estimator: a restored estimator produces bit-identical
// Estimate results, which the snapshot differential tests assert.
type EstimatorState struct {
	// Config is the configuration the estimator was trained with; the
	// Predictors part is what feature caches must be built from.
	Config Config `json:"config"`

	// Mask, Mean and Std are the resolved feature mask and the
	// standardization moments of the kept features.
	Mask []bool    `json:"mask"`
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`

	// FellBack records whether EM degenerated during training and the
	// model is the single-component linear fallback.
	FellBack bool `json:"fell_back"`

	// Radius, Lambda and NCalib are the conformal calibration: the
	// residual quantile half-width (log-CR scale), the miscoverage level
	// and the calibration-set size.
	Radius float64 `json:"radius"`
	Lambda float64 `json:"lambda"`
	NCalib int     `json:"n_calib"`

	// Components are the fitted mixture models behind the conformal
	// wrapper: exactly one for a single-split fit, one per split for the
	// multi-split mean ensemble.
	Components []*mixreg.Model `json:"components"`

	// Online is the rolling recalibration tracker state, present only
	// when online recalibration was enabled at capture time. Absent in
	// snapshots written before the field existed; those restore with no
	// tracker, exactly as they always did.
	Online *conformal.OnlineState `json:"online,omitempty"`
}

// ErrNotSnapshotable reports an estimator whose inner predictor is not
// built from mixture components (a custom conformal fitter), which the
// snapshot format cannot represent.
var ErrNotSnapshotable = errors.New("core: estimator is not snapshotable")

// State extracts the estimator's full parameter set for persistence.
func (e *Estimator) State() (*EstimatorState, error) {
	inner := e.model.Inner()
	var comps []*mixreg.Model
	if parts, ok := conformal.EnsembleParts(inner); ok {
		for _, p := range parts {
			m, ok := p.(*mixreg.Model)
			if !ok {
				return nil, fmt.Errorf("%w: ensemble member %T", ErrNotSnapshotable, p)
			}
			comps = append(comps, m)
		}
	} else if m, ok := inner.(*mixreg.Model); ok {
		comps = []*mixreg.Model{m}
	} else {
		return nil, fmt.Errorf("%w: inner predictor %T", ErrNotSnapshotable, inner)
	}
	st := &EstimatorState{
		Config:     e.cfg,
		Mask:       append([]bool(nil), e.mask...),
		Mean:       append([]float64(nil), e.mean...),
		Std:        append([]float64(nil), e.std...),
		FellBack:   e.fellBack,
		Radius:     e.model.Radius(),
		Lambda:     e.model.Lambda(),
		NCalib:     e.model.CalibrationSize(),
		Components: comps,
	}
	if e.online != nil {
		ost := e.online.State()
		st.Online = &ost
	}
	return st, nil
}

// FromState reconstructs a usable estimator from a decoded state,
// validating every invariant the estimation path relies on (slice shapes,
// finite moments, positive gating variances, non-degenerate components)
// so that arbitrary decoded bytes can never panic Estimate. The snapshot
// layer wraps any validation failure under crerr.ErrSnapshotCorrupt.
func FromState(st *EstimatorState) (*Estimator, error) {
	if st == nil {
		return nil, errors.New("core: nil estimator state")
	}
	nKept := 0
	for _, keep := range st.Mask {
		if keep {
			nKept++
		}
	}
	if len(st.Mask) == 0 || nKept == 0 {
		return nil, fmt.Errorf("core: state mask keeps %d of %d features", nKept, len(st.Mask))
	}
	if len(st.Mean) != nKept || len(st.Std) != nKept {
		return nil, fmt.Errorf("core: state moments %d/%d values, want %d", len(st.Mean), len(st.Std), nKept)
	}
	for j := range st.Mean {
		if !finite(st.Mean[j]) || !finite(st.Std[j]) || st.Std[j] == 0 {
			return nil, fmt.Errorf("core: state moment %d is (%g, %g)", j, st.Mean[j], st.Std[j])
		}
	}
	if !finite(st.Radius) || st.Radius < 0 {
		return nil, fmt.Errorf("core: state radius %g", st.Radius)
	}
	if !finite(st.Lambda) || st.Lambda < 0 || st.Lambda >= 1 {
		return nil, fmt.Errorf("core: state lambda %g", st.Lambda)
	}
	if st.NCalib < 0 {
		return nil, fmt.Errorf("core: state calibration size %d", st.NCalib)
	}
	if len(st.Components) == 0 {
		return nil, errors.New("core: state has no mixture components")
	}
	for ci, m := range st.Components {
		if err := validateComponent(m, nKept); err != nil {
			return nil, fmt.Errorf("core: state component %d: %w", ci, err)
		}
	}

	var inner conformal.Predictor
	if len(st.Components) == 1 {
		inner = st.Components[0]
	} else {
		parts := make([]conformal.Predictor, len(st.Components))
		for i, m := range st.Components {
			parts[i] = m
		}
		inner = conformal.Ensemble(parts)
	}
	est := &Estimator{
		cfg:      st.Config,
		model:    conformal.Restore(inner, st.Radius, st.Lambda, st.NCalib),
		mask:     append([]bool(nil), st.Mask...),
		mean:     append([]float64(nil), st.Mean...),
		std:      append([]float64(nil), st.Std...),
		nKept:    nKept,
		fellBack: st.FellBack,
	}
	if st.Online != nil {
		om, err := conformal.NewOnlineFromState(est.model, *st.Online)
		if err != nil {
			return nil, fmt.Errorf("core: state online tracker: %w", err)
		}
		est.online = om
	}
	return est, nil
}

// validateComponent checks one mixture model's shape and numeric
// invariants against the kept-feature dimensionality.
func validateComponent(m *mixreg.Model, d int) error {
	if m == nil {
		return errors.New("nil model")
	}
	if m.L < 1 || m.D != d {
		return fmt.Errorf("L=%d D=%d, want D=%d", m.L, m.D, d)
	}
	if len(m.Pi) != m.L || len(m.Beta) != m.L || len(m.Sigma) != m.L ||
		len(m.XMean) != m.L || len(m.XVar) != m.L {
		return fmt.Errorf("parameter slices sized %d/%d/%d/%d/%d, want %d",
			len(m.Pi), len(m.Beta), len(m.Sigma), len(m.XMean), len(m.XVar), m.L)
	}
	for c := 0; c < m.L; c++ {
		if len(m.Beta[c]) != d+1 {
			return fmt.Errorf("component %d has %d coefficients, want %d", c, len(m.Beta[c]), d+1)
		}
		if len(m.XMean[c]) != d || len(m.XVar[c]) != d {
			return fmt.Errorf("component %d gating moments sized %d/%d, want %d",
				c, len(m.XMean[c]), len(m.XVar[c]), d)
		}
		for j := 0; j < d; j++ {
			// Gate divides by XVar; a zero or negative variance would make
			// prediction NaN or panic-adjacent, so reject it here.
			if !(m.XVar[c][j] > 0) {
				return fmt.Errorf("component %d gating variance %d is %g", c, j, m.XVar[c][j])
			}
		}
	}
	if m.Degenerate() {
		return errors.New("degenerate parameters")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
