package crest

import (
	"github.com/crestlab/crest/internal/crerr"
)

// The estimation pipeline classifies every failure under a small set of
// sentinel errors. Match with errors.Is to route on failure class instead
// of string matching:
//
//	_, err := crest.ComputeFeatures(buf, eps, cfg)
//	switch {
//	case errors.Is(err, crest.ErrNonFiniteData):
//		// sanitize or drop the buffer
//	case errors.Is(err, crest.ErrInvalidBuffer):
//		// caller bug: bad shape or bound
//	}
var (
	// ErrInvalidBuffer reports a buffer whose shape or backing storage is
	// inconsistent (non-positive dimensions, data length mismatch, nil
	// buffer) or an invalid request parameter such as a non-positive
	// error bound.
	ErrInvalidBuffer = crerr.ErrInvalidBuffer

	// ErrNonFiniteData reports buffer data whose NaN/Inf fraction exceeds
	// the validation policy in force, or finite data whose global mean or
	// variance overflows float64 (values beyond about 1e154 in magnitude,
	// whose squares do not fit), which would make every feature NaN.
	ErrNonFiniteData = crerr.ErrNonFiniteData

	// ErrCanceled reports work abandoned because a context was canceled or
	// its deadline expired. Errors matching it also match the underlying
	// context sentinel (context.Canceled or context.DeadlineExceeded).
	ErrCanceled = crerr.ErrCanceled

	// ErrModelDegenerate reports a model fit that could not produce a
	// usable estimator even after falling back to the single-component
	// linear fit.
	ErrModelDegenerate = crerr.ErrModelDegenerate

	// ErrCompressor reports a compressor failure (error or recovered
	// panic) during ground-truth collection.
	ErrCompressor = crerr.ErrCompressor

	// ErrSnapshotCorrupt reports a model snapshot whose envelope is
	// malformed, whose payload digest does not match, or whose decoded
	// state fails validation.
	ErrSnapshotCorrupt = crerr.ErrSnapshotCorrupt

	// ErrSnapshotVersion reports a model snapshot written with a format
	// version this build does not speak.
	ErrSnapshotVersion = crerr.ErrSnapshotVersion

	// ErrOverloaded reports work refused by the serving layer's admission
	// control (inflight and queue bounds full). Transient: back off —
	// honoring any Retry-After hint — and retry.
	ErrOverloaded = crerr.ErrOverloaded

	// ErrBodyTooLarge reports an HTTP request body rejected by the
	// serving layer's size cap (wire kind "body_too_large", status 413).
	ErrBodyTooLarge = crerr.ErrBodyTooLarge

	// ErrDraining reports work refused because the serving process is
	// shutting down and no longer admits new requests.
	ErrDraining = crerr.ErrDraining

	// ErrStreamCorrupt reports a chunked block stream whose framing is
	// malformed, truncated, or whose transport failed mid-stream. The
	// wrapped chain also matches the underlying cause when one exists.
	ErrStreamCorrupt = crerr.ErrStreamCorrupt
)

// RequestError labels one request's failure with its position in a batch;
// extract with errors.As from a BatchError member.
type RequestError = crerr.IndexedError

// BatchError aggregates every per-request failure of a multi-request
// operation (BatchEstimator.EstimateAll, CollectSamples, cache warming)
// while the successes are still returned. It preserves every failing
// index — errors.As(err, &batchErr) then batchErr.Indices() or
// batchErr.ByIndex(i) — and errors.Is descends into every member.
type BatchError = crerr.AggregateError

// PanicValue extracts the recovered panic value when err originated from
// a worker panic that the pipeline isolated into a typed error.
func PanicValue(err error) (any, bool) { return crerr.PanicValue(err) }
