// Package capacity is the capacity-planning layer of the serving stack:
// request-span bookkeeping, a concurrency sweep driver, an online
// sampling window, and a Universal Scalability Law (USL) fit that turns
// a measured load-vs-throughput curve into a saturation forecast.
//
// The paper's pitch is that compressibility estimation is cheap enough
// to run inline at scale; this package answers the operational follow-up
// — *how much* traffic one deployment takes before it saturates. The
// sweep driver steps offered concurrency N across a range, records one
// span per request, and aggregates each level's spans into throughput
// X(N) and nearest-rank latency quantiles. FitUSL then estimates
//
//	X(N) = λN / (1 + σ(N−1) + κN(N−1))
//
// by least squares: λ is the single-stream throughput, σ the contention
// (serialization) fraction, κ the coherence (crosstalk) penalty. κ > 0
// yields an interior throughput peak at N* = √((1−σ)/κ) — the forecast
// saturation point of the deployment.
package capacity

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"github.com/crestlab/crest/internal/crerr"
)

// Outcome classifies one request span for throughput accounting.
type Outcome int

const (
	// OK is a served request: the only outcome that counts toward X(N).
	OK Outcome = iota
	// Shed is an admission rejection (503/overload): offered load the
	// server declined, not an error and not throughput.
	Shed
	// Error is a genuine failure (transport error, 5xx, bad response).
	Error
	// Canceled is a request abandoned by the driver — typically in
	// flight when its sweep level ended. Canceled spans are excluded
	// from both throughput and the error count: the server did nothing
	// wrong, the measurement window simply closed on them.
	Canceled
)

// Span is one request's timing record.
type Span struct {
	Start    time.Time
	Duration time.Duration
	Outcome  Outcome
	// Level is the offered-concurrency level the span ran under.
	Level int
}

// sortedPercentile returns the p-quantile of an ascending slice by the
// nearest-rank convention: the ⌈p·n⌉-th smallest sample (1-based), so
// the p99 of 100 samples is exactly the 99th sorted value — never an
// interpolated point that was not observed. p outside (0,1] clamps to
// the nearest end; an empty input returns 0.
func sortedPercentile(s []time.Duration, p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// LevelStats aggregates the spans of one concurrency level.
type LevelStats struct {
	// N is the offered concurrency of the level.
	N int `json:"n"`
	// OK/Shed/Errors/Canceled count spans by outcome.
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Errors   int `json:"errors"`
	Canceled int `json:"canceled"`
	// Throughput is X(N): served (OK) requests per second of wall time.
	Throughput float64 `json:"throughput_rps"`
	// P50/P90/P99 are nearest-rank latency quantiles of the OK spans.
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Wall is the level's measurement window.
	Wall time.Duration `json:"wall_ns"`
}

// Aggregate summarizes the spans of one level over the given wall-clock
// window. Only OK spans contribute to throughput and latency; canceled
// spans are counted but never folded into the error total.
func Aggregate(spans []Span, level int, wall time.Duration) LevelStats {
	st := LevelStats{N: level, Wall: wall}
	var lat []time.Duration
	for _, s := range spans {
		if s.Level != level {
			continue
		}
		switch s.Outcome {
		case OK:
			st.OK++
			lat = append(lat, s.Duration)
		case Shed:
			st.Shed++
		case Canceled:
			st.Canceled++
		default:
			st.Errors++
		}
	}
	if wall > 0 {
		st.Throughput = float64(st.OK) / wall.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	st.P50 = sortedPercentile(lat, 0.50)
	st.P90 = sortedPercentile(lat, 0.90)
	st.P99 = sortedPercentile(lat, 0.99)
	return st
}

// Classify maps a request error onto a span outcome. Cancellation —
// the level context closing on an in-flight request, directly or
// surfaced through the retry loop as crerr.ErrCanceled — is Canceled,
// never Error: a sweep level that ends mid-request must not report the
// stragglers as server failures. Overload (shed, drain) maps to Shed.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, crerr.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return Canceled
	case errors.Is(err, crerr.ErrOverloaded), errors.Is(err, crerr.ErrDraining):
		return Shed
	default:
		return Error
	}
}
