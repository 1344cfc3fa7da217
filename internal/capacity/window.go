package capacity

import (
	"sort"
	"sync"
	"time"
)

// maxWindowLevels bounds the per-level table of an online Window so a
// long-lived server's capacity bookkeeping stays fixed-size (inflight
// levels are bounded by admission control anyway; the cap is a
// belt-and-braces guard).
const maxWindowLevels = 512

// Window accumulates online X(N) samples on a live server: each Tick
// pairs the admission-control inflight gauge (the concurrency level N
// the server is actually running at) with the served-request counter
// delta since the previous tick (the throughput X over that interval).
// Over time the busy levels build a load-vs-throughput curve that
// Snapshot can fit with FitUSL — capacity planning from production
// traffic, no synthetic sweep required.
type Window struct {
	mu         sync.Mutex
	lastServed uint64
	lastAt     time.Time
	levels     map[int]*levelAgg
	ticks      uint64
	samples    uint64
}

type levelAgg struct {
	sumX    float64
	samples uint64
}

// NewWindow returns an empty online sampling window.
func NewWindow() *Window {
	return &Window{levels: make(map[int]*levelAgg)}
}

// Tick records one sampling instant: served is the monotone count of
// completed requests, inflight the current admission gauge. The first
// tick only establishes the baseline; idle ticks (inflight 0 and no
// completions) advance the baseline without recording a sample, so a
// quiet server does not flood level 0.
func (w *Window) Tick(now time.Time, served uint64, inflight int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ticks++
	if w.lastAt.IsZero() {
		w.lastAt, w.lastServed = now, served
		return
	}
	dt := now.Sub(w.lastAt).Seconds()
	var delta uint64
	if served > w.lastServed { // counter is monotone; guard regardless
		delta = served - w.lastServed
	}
	w.lastAt, w.lastServed = now, served
	if dt <= 0 {
		return
	}
	if inflight <= 0 && delta == 0 {
		return // idle interval: no concurrency level to attribute
	}
	level := inflight
	if level < 1 {
		// Completions landed but the gauge already drained: attribute to
		// the lowest busy level rather than inventing level 0.
		level = 1
	}
	agg := w.levels[level]
	if agg == nil {
		if len(w.levels) >= maxWindowLevels {
			return
		}
		agg = &levelAgg{}
		w.levels[level] = agg
	}
	agg.sumX += float64(delta) / dt
	agg.samples++
	w.samples++
}

// WindowLevel is one concurrency level's aggregated online throughput.
type WindowLevel struct {
	N       int     `json:"n"`
	MeanX   float64 `json:"mean_throughput_rps"`
	Samples uint64  `json:"samples"`
}

// WindowSnapshot is the /statsz capacity block: the observed per-level
// curve and, once at least three distinct busy levels exist, the USL
// fit with its saturation forecast.
type WindowSnapshot struct {
	Ticks   uint64        `json:"ticks"`
	Samples uint64        `json:"samples"`
	Levels  []WindowLevel `json:"levels,omitempty"`
	Fit     *Fit          `json:"fit,omitempty"`
	// NStar and PeakThroughput forecast the saturation point when the
	// fit has an interior peak (κ > 0).
	NStar          float64 `json:"n_star,omitempty"`
	PeakThroughput float64 `json:"peak_throughput_rps,omitempty"`
}

// Samples returns how many non-idle samples have been recorded.
func (w *Window) Samples() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.samples
}

// DistinctLevels returns how many distinct busy levels have samples.
func (w *Window) DistinctLevels() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.levels)
}

// Snapshot summarizes the window and attempts a USL fit over the mean
// per-level throughputs. A failed or underdetermined fit simply leaves
// Fit nil — online data is allowed to be degenerate.
func (w *Window) Snapshot() WindowSnapshot {
	w.mu.Lock()
	snap := WindowSnapshot{Ticks: w.ticks, Samples: w.samples}
	for n, agg := range w.levels {
		snap.Levels = append(snap.Levels, WindowLevel{
			N:       n,
			MeanX:   agg.sumX / float64(agg.samples),
			Samples: agg.samples,
		})
	}
	w.mu.Unlock()
	sort.Slice(snap.Levels, func(i, j int) bool { return snap.Levels[i].N < snap.Levels[j].N })

	pts := make([]Point, 0, len(snap.Levels))
	for _, l := range snap.Levels {
		if l.MeanX > 0 {
			pts = append(pts, Point{N: float64(l.N), X: l.MeanX})
		}
	}
	if fit, err := FitUSL(pts); err == nil {
		snap.Fit = &fit
		if nstar, xpeak, ok := fit.Peak(); ok {
			snap.NStar, snap.PeakThroughput = nstar, xpeak
		}
	}
	return snap
}
