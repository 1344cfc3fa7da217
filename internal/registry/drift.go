package registry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/fieldsim"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// DriftConfig tunes drift detection on the feedback stream: when the
// active model's rolling MedAPE over ground-truth observations crosses
// the threshold, the lineage's workload has drifted from the training
// distribution and a background retrain is triggered.
type DriftConfig struct {
	// Window is the rolling APE window (default 64 observations).
	Window int

	// MinObs is the minimum window fill before drift can trigger
	// (default 32).
	MinObs int

	// MedAPEThreshold is the rolling MedAPE (percent) that declares
	// drift. 0 disables drift detection.
	MedAPEThreshold float64
}

// driftCooldown is the minimum spacing between retrain triggers, so a
// persistently hard workload retrains once, not in a loop.
const driftCooldown = 5 * time.Minute

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinObs <= 0 {
		c.MinObs = 32
	}
	return c
}

// driftTracker is the per-lineage rolling APE window. Guarded by the
// lineage mutex.
type driftTracker struct {
	cfg         DriftConfig
	ring        []float64
	lastTrigger time.Time
}

func newDriftTracker(cfg DriftConfig) driftTracker {
	return driftTracker{cfg: cfg}
}

func (d *driftTracker) observe(ape float64) {
	d.ring = pushRing(d.ring, ape, d.cfg.Window)
}

func (d *driftTracker) reset() { d.ring = d.ring[:0] }

// drifted reports whether the window declares drift and the cooldown has
// elapsed.
func (d *driftTracker) drifted(now time.Time) bool {
	if d.cfg.MedAPEThreshold <= 0 || len(d.ring) < d.cfg.MinObs {
		return false
	}
	if !d.lastTrigger.IsZero() && now.Sub(d.lastTrigger) < driftCooldown {
		return false
	}
	return median(d.ring) >= d.cfg.MedAPEThreshold
}

// RetrainFunc trains a replacement model from the selected training
// fields. It runs on a background goroutine; the context is canceled when
// the registry closes.
type RetrainFunc func(ctx context.Context, fields []*grid.Field) (*core.Estimator, error)

// Retraining wires drift-triggered retraining for one lineage: the field
// library set-cover selection draws from, the predictor configuration the
// similarity profiles use, and the training function itself.
type Retraining struct {
	// Library is the candidate training set. Set-cover selection picks a
	// minimal subset whose similarity neighborhoods cover the library.
	Library []*grid.Field

	// Predictors configures the fieldsim profiles (should match the
	// serving model's predictor config).
	Predictors predictors.Config

	// RadiusFactor scales the cover radius relative to the similarity
	// matrix's self-distance baseline (default 1.5).
	RadiusFactor float64

	// Retrain builds the replacement model from the selected fields.
	Retrain RetrainFunc
}

// retrainer is the per-lineage retraining state. Guarded by the lineage
// mutex.
type retrainer struct {
	cfg      Retraining
	inFlight bool
}

// SetRetraining arms drift-triggered retraining on the named lineage.
func (r *Registry) SetRetraining(name string, rt Retraining) error {
	if rt.Retrain == nil {
		return errors.New("registry: retraining needs a Retrain func")
	}
	if len(rt.Library) == 0 {
		return errors.New("registry: retraining needs a field library")
	}
	if rt.RadiusFactor <= 0 {
		rt.RadiusFactor = 1.5
	}
	ln, err := r.lineage(name)
	if err != nil {
		return err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.retrain = &retrainer{cfg: rt}
	return nil
}

// maybeRetrainLocked checks the drift tracker and, when drift is declared
// and retraining is armed, kicks off a background retrain whose result is
// published as a canary candidate. At most one retrain runs per lineage,
// and none while a canary is already in flight (the rollout must settle
// before fresh evidence arrives). Caller holds ln.mu.
func (r *Registry) maybeRetrainLocked(ln *lineage) bool {
	rt := ln.retrain
	if rt == nil || rt.inFlight || ln.st.Canary != nil {
		return false
	}
	if !ln.drift.drifted(r.cfg.Now()) {
		return false
	}
	ln.drift.lastTrigger = r.cfg.Now()
	ln.drift.reset()
	rt.inFlight = true
	ln.st.logDecision(Decision{
		Time: r.cfg.Now(), Action: "retrain", From: ln.st.Active, Auto: true,
		Reason: fmt.Sprintf("drift: rolling MedAPE crossed %.1f%%", r.cfg.Drift.MedAPEThreshold),
	})
	if err := saveState(r.cfg.FS, ln.dir, ln.st); err != nil {
		r.cfg.Logf("registry: %s: retrain persist: %v", ln.name, err)
	}
	r.obs.retrains.Inc()
	r.cfg.Logf("registry: %s: drift detected, retraining in background", ln.name)

	cfg := rt.cfg
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			ln.mu.Lock()
			rt.inFlight = false
			ln.mu.Unlock()
		}()
		fields := selectCover(cfg, r.cfg.Logf, ln.name)
		est, err := cfg.Retrain(r.ctx, fields)
		if err != nil {
			r.obs.retrainFails.Inc()
			r.cfg.Logf("registry: %s: retrain failed: %v", ln.name, err)
			return
		}
		if _, err := r.Publish(ln.name, est); err != nil {
			r.obs.retrainFails.Inc()
			r.cfg.Logf("registry: %s: publish retrained model: %v", ln.name, err)
		}
	}()
	return true
}

// selectCover picks the minimal set-cover training subset of the library:
// fields whose similarity neighborhoods (radius scaled off the matrix's
// self-distance baseline) cover every library member. Selection failures
// degrade to the full library — retraining on more data than necessary
// beats not retraining.
func selectCover(cfg Retraining, logf func(string, ...any), lineage string) []*grid.Field {
	if len(cfg.Library) == 1 {
		return cfg.Library
	}
	m, err := fieldsim.SimilarityMatrix(cfg.Library, cfg.Predictors)
	if err != nil {
		logf("registry: %s: similarity matrix: %v; retraining on full library", lineage, err)
		return cfg.Library
	}
	radius := cfg.RadiusFactor * m.SelfDistanceBaseline()
	covers := m.Covers(radius)
	chosen, err := fieldsim.MinimalCover(covers, nil)
	if err != nil {
		chosen, err = fieldsim.GreedyCover(covers, nil)
	}
	if err != nil {
		logf("registry: %s: set cover: %v; retraining on full library", lineage, err)
		return cfg.Library
	}
	out := make([]*grid.Field, 0, len(chosen))
	for _, i := range chosen {
		out = append(out, cfg.Library[i])
	}
	return out
}
