package crest

import (
	"context"

	"github.com/crestlab/crest/internal/baselines"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/predictors"
)

// PredictorConfig tunes the computation of the five statistical
// predictors: the block edge K and the parallelism.
type PredictorConfig = predictors.Config

// Features is the five-dimensional covariate vector of one buffer at one
// error bound: spatial diversity, spatial correlation, coding gain,
// CovSVD truncation, and the error-bound-specific generic distortion.
type Features = predictors.Features

// DatasetFeatures are the four error-bound-agnostic predictors, reusable
// across error bounds.
type DatasetFeatures = predictors.DatasetFeatures

// FeatureNames lists the feature vector components in order.
var FeatureNames = predictors.FeatureNames

// ComputeFeatures evaluates all five predictors for one buffer and bound.
func ComputeFeatures(buf *Buffer, eps float64, cfg PredictorConfig) (Features, error) {
	return predictors.Compute(buf, eps, cfg)
}

// ComputeFeatureVector is ComputeFeatures flattened to the model's
// covariate slice.
func ComputeFeatureVector(buf *Buffer, eps float64, cfg PredictorConfig) ([]float64, error) {
	return core.FeaturesOf(buf, eps, cfg)
}

// ComputeDatasetFeatures evaluates only the error-bound-agnostic
// predictors (the "dset_predictors" of Algorithm 2).
func ComputeDatasetFeatures(buf *Buffer, cfg PredictorConfig) (DatasetFeatures, error) {
	return predictors.ComputeDataset(buf, cfg)
}

// VolumeFeatures are pooled predictors for a native 3D volume, the
// paper's footnote-1 extension.
type VolumeFeatures = predictors.VolumeFeatures

// ComputeVolumeFeatures evaluates the 3D extension: the four spatial
// predictors pooled over slices (computed in parallel) and the generic
// distortion over the full volume sample.
func ComputeVolumeFeatures(vol *Volume, eps float64, cfg PredictorConfig) (VolumeFeatures, error) {
	return predictors.ComputeVolume(vol, eps, cfg)
}

// ComputeDatasetFeaturesNaive is the unfused one-pass-per-metric reference
// implementation of ComputeDatasetFeatures — the computation style of
// prior approaches, kept for differential testing and for quantifying the
// paper's fused-pass training-time advantage.
func ComputeDatasetFeaturesNaive(buf *Buffer, cfg PredictorConfig) (DatasetFeatures, error) {
	return predictors.NaiveComputeDataset(buf, cfg)
}

// ComputeDistortion evaluates the error-bound-specific generic distortion
// (the "eb_predictors" of Algorithm 2), returned as log2(1+D̂).
func ComputeDistortion(buf *Buffer, eps float64, cfg PredictorConfig) (float64, error) {
	return predictors.ComputeEB(buf, eps, cfg)
}

// EstimatorConfig tunes the full estimation pipeline: predictors, mixture
// regression, conformal calibration, CR cap and the optional feature mask.
type EstimatorConfig = core.Config

// Sample is one training observation: covariates plus observed CR.
type Sample = core.Sample

// Estimate is a conformal compression-ratio estimate.
type Estimate = core.Estimate

// Estimator is the paper's trained compressibility model.
type Estimator = core.Estimator

// TrainEstimator fits the mixture-regression + conformal pipeline. When
// the EM fit degenerates it falls back to a single-component linear fit
// (Estimator.FellBack reports this); only if the fallback also fails does
// it return an error wrapping ErrModelDegenerate.
func TrainEstimator(samples []Sample, cfg EstimatorConfig) (*Estimator, error) {
	return core.Train(samples, cfg)
}

// TrainEstimatorContext is TrainEstimator with cooperative cancellation:
// the context is checked between EM iterations, and a canceled fit returns
// an error matching both ErrCanceled and the context's own sentinel.
func TrainEstimatorContext(ctx context.Context, samples []Sample, cfg EstimatorConfig) (*Estimator, error) {
	return core.TrainContext(ctx, samples, cfg)
}

// CollectSamples computes covariates and ground-truth ratios for buffers
// by running the compressor once each — the training-data collection step.
// Buffers are processed concurrently across all cores; the returned
// samples are in buffer order, identical to a serial run.
func CollectSamples(bufs []*Buffer, comp Compressor, eps float64, cfg PredictorConfig) ([]Sample, error) {
	return core.BuildSamples(bufs, comp, eps, cfg)
}

// CollectSamplesWorkers is CollectSamples with an explicit bound on the
// per-buffer worker pool (workers <= 0 selects GOMAXPROCS, 1 is serial).
func CollectSamplesWorkers(bufs []*Buffer, comp Compressor, eps float64, cfg PredictorConfig, workers int) ([]Sample, error) {
	return core.BuildSamplesWorkers(bufs, comp, eps, cfg, workers)
}

// CollectSamplesContext is CollectSamplesWorkers with cooperative
// cancellation and per-buffer fault isolation. Workers stop claiming new
// buffers once ctx is done and drain before the call returns, yielding an
// error matching ErrCanceled. A buffer whose features or compression fail
// (including a recovered compressor panic, classified under ErrCompressor)
// contributes an index-labelled entry to a BatchError while every other
// buffer's sample is still collected.
func CollectSamplesContext(ctx context.Context, bufs []*Buffer, comp Compressor, eps float64, cfg PredictorConfig, workers int) ([]Sample, error) {
	return core.BuildSamplesContext(ctx, bufs, comp, eps, cfg, workers)
}

// Method is a compression-ratio estimation method under evaluation: the
// proposed approach or one of the prior-work baselines.
type Method = baselines.Method

// MultiBoundTrainer is implemented by feature-based methods (proposed,
// Underwood) that can train across several error bounds at once, which the
// use-case-A bound search requires: crs[i][j] is the true ratio of
// bufs[i] at epses[j].
type MultiBoundTrainer interface {
	FitMulti(bufs []*Buffer, crs [][]float64, epses []float64) error
}

// NewProposedMethod wraps the paper's estimator in the Method interface,
// with feature caching for repeated evaluation.
func NewProposedMethod(cfg EstimatorConfig) *baselines.Proposed { return baselines.NewProposed(cfg) }

// FeatureCache is a shareable predictor-feature cache; per-compressor
// proposed methods should share one since features are
// compressor-independent. It is race-safe (sharded, mutex-protected,
// singleflight admission): any number of goroutines may share one cache,
// and each buffer's features are computed exactly once even under
// concurrent first requests.
type FeatureCache = baselines.FeatureCache

// NewFeatureCache returns an empty shareable feature cache.
func NewFeatureCache(cfg EstimatorConfig) *FeatureCache { return baselines.NewFeatureCache(cfg) }

// NewProposedMethodShared is NewProposedMethod with a shared feature
// cache.
func NewProposedMethodShared(cfg EstimatorConfig, cache *FeatureCache) *baselines.Proposed {
	return baselines.NewProposedShared(cfg, cache)
}

// NewUnderwoodMethod returns the Underwood et al. black-box linear
// baseline.
func NewUnderwoodMethod() Method { return baselines.NewUnderwood() }

// NewTaoMethod returns the Tao et al. sampled quantized-entropy baseline.
func NewTaoMethod() Method { return baselines.NewTao() }

// NewLuMethod returns the Lu et al. white-box SZ-internals baseline.
func NewLuMethod() Method { return baselines.NewLu() }

// NewRahmanMethod returns the decision-tree baseline (Rahman et al.
// style): a CART regression tree on the same five predictors.
func NewRahmanMethod() Method { return baselines.NewRahman() }
