package registry

import "github.com/crestlab/crest/internal/conformal"

// FeedbackResult reports what one feedback observation did to the
// lineage's active model.
type FeedbackResult struct {
	// Online carries the active model's rolling conformal stats when
	// online recalibration is enabled.
	Online       *conformal.OnlineStats
	Recalibrated bool
}

// ObserveFeedback scores one ground-truth observation (feature vector +
// actual compression ratio) against the lineage's active model, feeding
// its online conformal recalibration when enabled. A feature vector the
// model cannot estimate is refused with the estimate's error.
func (r *Registry) ObserveFeedback(name string, features []float64, actualCR float64) (FeedbackResult, error) {
	ln, err := r.lineage(name)
	if err != nil {
		return FeedbackResult{}, err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	var res FeedbackResult
	if _, err := ln.active.est.Estimate(features); err != nil {
		return res, err
	}
	if ln.active.est.OnlineRecalibrationEnabled() {
		if st, recal, oerr := ln.active.est.ObserveActual(features, actualCR); oerr == nil {
			res.Online = &st
			res.Recalibrated = recal
		}
	}
	return res, nil
}
