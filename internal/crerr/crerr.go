// Package crerr is the error taxonomy of the estimation pipeline. Every
// failure that can cross a public API boundary is classified under one of
// a small set of sentinel errors so callers can route on failure class
// with errors.Is instead of string matching, and multi-request paths (the
// batch engine, sample collection, cache warming) aggregate per-request
// failures without losing either the failing indices or the successes.
//
// The package sits below every other internal package (it imports only
// the standard library), so grid, featcache, batch, core and eval can all
// classify their failures consistently.
package crerr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
)

// Sentinel errors of the pipeline. All errors returned by the estimation
// stack wrap exactly one of these (match with errors.Is).
var (
	// ErrInvalidBuffer reports a buffer whose shape or backing storage is
	// inconsistent (non-positive dimensions, data length mismatch, nil
	// buffer) or an invalid request parameter such as a non-positive
	// error bound.
	ErrInvalidBuffer = errors.New("crest: invalid buffer")

	// ErrNonFiniteData reports buffer data whose NaN/Inf fraction exceeds
	// the validation policy in force, or finite data whose global mean or
	// variance overflows float64 (values beyond about 1e154 in magnitude,
	// whose squares do not fit), which would make every feature NaN.
	ErrNonFiniteData = errors.New("crest: non-finite data")

	// ErrCanceled reports work abandoned because a context was canceled
	// or its deadline expired. Errors matching it also match the
	// underlying context sentinel (context.Canceled or
	// context.DeadlineExceeded).
	ErrCanceled = errors.New("crest: canceled")

	// ErrModelDegenerate reports a model fit that could not produce a
	// usable estimator even after falling back to the single-component
	// linear fit.
	ErrModelDegenerate = errors.New("crest: degenerate model fit")

	// ErrCompressor reports a compressor failure (error or recovered
	// panic) during ground-truth collection.
	ErrCompressor = errors.New("crest: compressor failure")

	// ErrSnapshotCorrupt reports a model snapshot whose envelope is
	// malformed, whose payload digest does not match, or whose decoded
	// state fails validation — anything short of a loadable model.
	ErrSnapshotCorrupt = errors.New("crest: snapshot corrupt")

	// ErrSnapshotVersion reports a model snapshot written with a format
	// version this build does not speak. The snapshot may be perfectly
	// intact; the reader is the wrong vintage.
	ErrSnapshotVersion = errors.New("crest: snapshot version skew")

	// ErrOverloaded reports work refused by admission control: the
	// serving layer's inflight and queue bounds were both full, so the
	// request was shed rather than allowed to collapse the process.
	// Overload is transient by definition — callers should back off
	// (honoring any Retry-After hint) and retry.
	ErrOverloaded = errors.New("crest: overloaded")

	// ErrDraining reports work refused because the process is shutting
	// down: readiness has been withdrawn and no new work is admitted
	// while inflight requests finish.
	ErrDraining = errors.New("crest: draining")

	// ErrBodyTooLarge reports a request body rejected by the serving
	// layer's size cap before it was fully read. Distinct from
	// ErrInvalidBuffer so the HTTP boundary can answer 413 (the client
	// must shrink the payload) rather than 400 (the payload is
	// malformed).
	ErrBodyTooLarge = errors.New("crest: request body too large")

	// ErrStreamCorrupt reports a chunked block stream (grid.ChunkReader)
	// that cannot be decoded: bad magic or version, a header outside the
	// configured ingest limits, a chunk frame that overruns the declared
	// shape, or a stream truncated mid-chunk. Errors from the underlying
	// reader are wrapped alongside this sentinel, so both
	// errors.Is(err, ErrStreamCorrupt) and errors.Is(err, <cause>) hold.
	ErrStreamCorrupt = errors.New("crest: block stream corrupt")

	// ErrQuotaExceeded reports work refused because the requesting tenant
	// spent its admission quota. Deliberately distinct from ErrOverloaded:
	// quota exhaustion is the *tenant's* backpressure (HTTP 429 with a
	// per-tenant Retry-After), not the server's (503) — the server has
	// capacity, this tenant just is not entitled to more of it right now.
	// Clients should wait out the Retry-After hint and resume; the
	// condition says nothing about server health, so it must not trip
	// circuit breakers or count toward peer failure ejection.
	ErrQuotaExceeded = errors.New("crest: tenant quota exceeded")

	// ErrUnknownLineage reports a request routed at a model lineage the
	// registry does not host (and that has no default to fall back to).
	ErrUnknownLineage = errors.New("crest: unknown model lineage")
)

// Canceled wraps a context error (or nil, treated as context.Canceled) so
// the result matches both ErrCanceled and the original context sentinel.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &canceledError{cause: cause}
}

type canceledError struct{ cause error }

func (e *canceledError) Error() string {
	return "crest: canceled: " + e.cause.Error()
}

// Unwrap exposes both the taxonomy sentinel and the context cause, so
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) both hold.
func (e *canceledError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// Recovered converts a recovered panic value into an error classified
// under sentinel, capturing the stack at the recovery site. It is the
// bridge that keeps panics from malformed buffers or injected faults from
// escaping worker goroutines.
func Recovered(v any, sentinel error) error {
	return &panicError{v: v, sentinel: sentinel, stack: debug.Stack()}
}

type panicError struct {
	v        any
	sentinel error
	stack    []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("%v: recovered panic: %v", e.sentinel, e.v)
}

func (e *panicError) Unwrap() error { return e.sentinel }

// Stack returns the goroutine stack captured at the recovery site.
func (e *panicError) Stack() []byte { return e.stack }

// PanicValue extracts the recovered panic value when err (or an error it
// wraps) originated from Recovered.
func PanicValue(err error) (any, bool) {
	var pe *panicError
	if errors.As(err, &pe) {
		return pe.v, true
	}
	return nil, false
}

// IndexedError labels one request's failure with its position in a batch.
type IndexedError struct {
	Index int
	Err   error
}

func (e *IndexedError) Error() string {
	return fmt.Sprintf("request %d: %v", e.Index, e.Err)
}

func (e *IndexedError) Unwrap() error { return e.Err }

// AggregateError collects every per-request failure of a multi-request
// operation, preserving each failing index. errors.Is / errors.As descend
// into every member, so a caller can ask "did anything fail because of
// non-finite data?" across the whole batch in one call.
type AggregateError struct {
	// Errs holds one entry per failing request, in index order.
	Errs []*IndexedError
	// Total is the total number of requests in the operation, so the
	// message can report a failure rate.
	Total int
}

// maxListed bounds how many member errors the summary message spells out.
const maxListed = 4

func (e *AggregateError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d requests failed", len(e.Errs), e.Total)
	for i, ie := range e.Errs {
		if i == maxListed {
			fmt.Fprintf(&b, "; and %d more", len(e.Errs)-maxListed)
			break
		}
		b.WriteString("; ")
		b.WriteString(ie.Error())
	}
	return b.String()
}

// Unwrap exposes every member failure for errors.Is / errors.As.
func (e *AggregateError) Unwrap() []error {
	out := make([]error, len(e.Errs))
	for i, ie := range e.Errs {
		out[i] = ie
	}
	return out
}

// Indices lists the failing request indices in order.
func (e *AggregateError) Indices() []int {
	out := make([]int, len(e.Errs))
	for i, ie := range e.Errs {
		out[i] = ie.Index
	}
	return out
}

// ByIndex returns the failure of request i, or nil when it succeeded.
func (e *AggregateError) ByIndex(i int) error {
	for _, ie := range e.Errs {
		if ie.Index == i {
			return ie.Err
		}
	}
	return nil
}

// Aggregate builds an AggregateError from a positional error slice (one
// slot per request, nil for successes). It returns nil when every slot is
// nil, so callers can write `return out, crerr.Aggregate(errs)`.
func Aggregate(errs []error) error {
	var idx []*IndexedError
	for i, err := range errs {
		if err != nil {
			idx = append(idx, &IndexedError{Index: i, Err: err})
		}
	}
	if len(idx) == 0 {
		return nil
	}
	return &AggregateError{Errs: idx, Total: len(errs)}
}
