package registry

import (
	"fmt"
	"math"
	"time"

	"github.com/crestlab/crest/internal/conformal"
)

// regressFactor and apeSlack set the canary's rollback bound: the
// candidate regresses when its MedAPE exceeds regressFactor·active +
// apeSlack percentage points. The multiplicative term scales with how
// hard the workload is; the additive slack keeps tiny absolute
// differences from triggering on easy workloads. coverageSlack is the
// tolerated conformal-coverage deficit: the candidate regresses when its
// empirical coverage falls more than this far below the active model's.
const (
	regressFactor = 1.25
	apeSlack      = 2.0
	coverageSlack = 0.10
)

// The evidence a canary decision needs. The candidate and the active
// model are compared over the last canaryWindow scored observations. No
// decision is taken before canaryMinObs of them; from then on the
// comparison is re-evaluated every canaryEvalEvery, and
// canarySustainEvals consecutive winning evaluations promote. The canary
// counters are persisted at least every canaryPersistEvery observations,
// besides at every decision, which bounds the replay after a crash.
const (
	canaryWindow       = 128
	canaryMinObs       = 24
	canaryEvalEvery    = 8
	canarySustainEvals = 3
	canaryPersistEvery = 16
)

// FeedbackResult reports what one feedback observation did to the
// lineage: the online-recalibration outcome of the active model and the
// canary decision, if this observation triggered one.
type FeedbackResult struct {
	Lineage   string
	ActiveSeq int

	// Online carries the active model's rolling conformal stats when
	// online recalibration is enabled.
	Online       *conformal.OnlineStats
	Recalibrated bool

	// Decision is "", "promote" or "rollback".
	Decision string
}

// ObserveFeedback scores one ground-truth observation (feature vector +
// actual compression ratio) against the lineage's active model — feeding
// its online conformal recalibration when enabled — and, when a canary is
// in flight, against the candidate as well, updating the comparison
// windows and possibly deciding the rollout. Decisions persist the
// control state before taking effect, so they survive a crash.
func (r *Registry) ObserveFeedback(name string, features []float64, actualCR float64) (FeedbackResult, error) {
	ln, err := r.lineage(name)
	if err != nil {
		return FeedbackResult{}, err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	res := FeedbackResult{Lineage: ln.name, ActiveSeq: ln.st.Active}

	activeEst, estErr := ln.active.est.Estimate(features)
	if estErr != nil {
		return res, estErr
	}
	if ln.active.est.OnlineRecalibrationEnabled() {
		if st, recal, oerr := ln.active.est.ObserveActual(features, actualCR); oerr == nil {
			res.Online = &st
			res.Recalibrated = recal
		}
	}

	c := ln.st.Canary
	if c == nil || ln.candidate == nil {
		return res, nil
	}
	candEst, cerr := ln.candidate.est.Estimate(features)
	if cerr != nil {
		// A candidate that cannot score live traffic is regressed by
		// definition.
		r.rollbackCanaryLocked(ln, true, "candidate failed to estimate: "+cerr.Error())
		res.Decision = "rollback"
		return res, nil
	}
	if ln.candidate.est.OnlineRecalibrationEnabled() {
		ln.candidate.est.ObserveActual(features, actualCR) //nolint:errcheck // advisory
	}

	c.ActiveAPE = pushRing(c.ActiveAPE, ape(activeEst.CR, actualCR))
	c.CandAPE = pushRing(c.CandAPE, ape(candEst.CR, actualCR))
	if activeEst.Contains(actualCR) {
		c.ActiveHits++
	}
	if candEst.Contains(actualCR) {
		c.CandHits++
	}
	c.WindowObs++
	c.Observed++
	ln.unsaved++

	if c.Observed >= canaryMinObs && c.Observed%canaryEvalEvery == 0 {
		start := time.Now()
		res.Decision = r.decideLocked(ln)
		r.obs.decisionSecs.Observe(time.Since(start).Seconds())
	}
	if res.Decision == "" && ln.unsaved >= canaryPersistEvery {
		if err := saveState(r.cfg.FS, ln.dir, ln.st); err != nil {
			r.cfg.Logf("registry: %s: canary persist: %v", ln.name, err)
		} else {
			ln.unsaved = 0
		}
	}
	if res.Decision != "" {
		ln.unsaved = 0
	}
	return res, nil
}

// decideLocked evaluates the canary comparison and returns "", "promote"
// or "rollback". Caller holds ln.mu with a canary in flight.
func (r *Registry) decideLocked(ln *lineage) string {
	c := ln.st.Canary
	activeMed := median(c.ActiveAPE)
	candMed := median(c.CandAPE)
	activeCov := float64(c.ActiveHits) / float64(c.WindowObs)
	candCov := float64(c.CandHits) / float64(c.WindowObs)

	regressed := candMed > activeMed*regressFactor+apeSlack ||
		candCov < activeCov-coverageSlack
	if regressed {
		r.rollbackCanaryLocked(ln, true, decisionReason(activeMed, candMed, activeCov, candCov))
		return "rollback"
	}
	win := candMed <= activeMed+apeSlack && candCov >= activeCov-coverageSlack/2
	if !win {
		c.WinStreak = 0
		return ""
	}
	c.WinStreak++
	if c.WinStreak < canarySustainEvals {
		return ""
	}
	cand := ln.candidate
	r.promoteLocked(ln, cand, true, decisionReason(activeMed, candMed, activeCov, candCov))
	return "promote"
}

func decisionReason(activeMed, candMed, activeCov, candCov float64) string {
	return fmt.Sprintf("medape active %.1f%% vs candidate %.1f%%, coverage %.0f%% vs %.0f%%",
		activeMed, candMed, activeCov*100, candCov*100)
}

// ape is the absolute percentage error of estimate est against actual,
// with actual capped at the training CR cap so a wild outlier does not
// dominate the window. actual is validated positive by the caller's
// request decode.
func ape(est, actual float64) float64 {
	if actual <= 0 || math.IsNaN(actual) || math.IsInf(actual, 0) {
		return math.NaN()
	}
	return 100 * math.Abs(est-actual) / actual
}

// pushRing appends v to the ring, trimming to canaryWindow from the
// front.
func pushRing(ring []float64, v float64) []float64 {
	if math.IsNaN(v) {
		return ring
	}
	ring = append(ring, v)
	if len(ring) > canaryWindow {
		ring = ring[len(ring)-canaryWindow:]
	}
	return ring
}
