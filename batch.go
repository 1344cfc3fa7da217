package crest

import (
	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/featcache"
)

// BatchRequest asks for one compression-ratio estimate: one buffer at one
// absolute error bound.
type BatchRequest = batch.Request

// BatchStats is a snapshot of the batch engine's observability counters:
// request/batch totals, shared-cache hits and misses, worker occupancy,
// and per-stage wall time.
type BatchStats = batch.Stats

// BatchEstimator fans estimation requests over a bounded worker pool while
// sharing one race-safe feature cache across requests and batches, so
// estimation stays cheap enough to run inline with parallel workloads (the
// paper's §IV-C operating point). Its results are bit-identical to calling
// Estimator.Estimate serially for any worker count or request order, and
// for any predictor Workers setting.
type BatchEstimator = batch.Engine

// FeatureCacheStats are the hit/miss counters of a FeatureCache.
type FeatureCacheStats = featcache.Stats

// NewBatchEstimator returns a batch engine over a trained estimator.
// cache may be shared with other engines and with proposed-method
// instances (NewProposedMethodShared) and must use the predictor
// configuration the estimator was trained with; nil creates a private
// cache from the estimator's configuration. workers <= 0 selects
// GOMAXPROCS.
func NewBatchEstimator(est *Estimator, cache *FeatureCache, workers int) *BatchEstimator {
	return batch.New(est, cache, workers)
}
