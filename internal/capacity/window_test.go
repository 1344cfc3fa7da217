package capacity

import (
	"math"
	"testing"
	"time"
)

func TestWindowTickAccumulation(t *testing.T) {
	w := NewWindow()
	t0 := time.Unix(1000, 0)
	w.Tick(t0, 0, 0) // baseline only
	if w.Samples() != 0 {
		t.Fatalf("baseline tick recorded a sample")
	}
	// 1s later: 100 requests completed at inflight 4.
	w.Tick(t0.Add(time.Second), 100, 4)
	// Idle interval: no sample.
	w.Tick(t0.Add(2*time.Second), 100, 0)
	// 200 more at inflight 8.
	w.Tick(t0.Add(3*time.Second), 300, 8)
	if w.Samples() != 2 {
		t.Fatalf("samples = %d, want 2 (idle tick must not record)", w.Samples())
	}
	if w.DistinctLevels() != 2 {
		t.Fatalf("distinct levels = %d, want 2", w.DistinctLevels())
	}
	snap := w.Snapshot()
	if snap.Ticks != 4 {
		t.Fatalf("ticks = %d, want 4", snap.Ticks)
	}
	if len(snap.Levels) != 2 || snap.Levels[0].N != 4 || snap.Levels[1].N != 8 {
		t.Fatalf("levels = %+v, want N=4 then N=8", snap.Levels)
	}
	if math.Abs(snap.Levels[0].MeanX-100) > 1e-9 || math.Abs(snap.Levels[1].MeanX-200) > 1e-9 {
		t.Fatalf("mean throughputs = %+v, want 100 and 200", snap.Levels)
	}
	if snap.Fit != nil {
		t.Fatalf("fit with 2 levels should be nil, got %+v", snap.Fit)
	}
}

func TestWindowFitEmerges(t *testing.T) {
	w := NewWindow()
	truth := Fit{Lambda: 1000, Sigma: 0.05, Kappa: 0.001}
	now := time.Unix(2000, 0)
	w.Tick(now, 0, 0)
	served := 0.0
	for i, n := range []int{1, 2, 4, 8, 16, 32} {
		served += truth.Throughput(float64(n)) // one second per tick
		now = now.Add(time.Second)
		w.Tick(now, uint64(served), n)
		_ = i
	}
	snap := w.Snapshot()
	if snap.Fit == nil {
		t.Fatalf("no fit with %d levels", len(snap.Levels))
	}
	if rel := math.Abs(snap.Fit.Sigma-truth.Sigma) / truth.Sigma; rel > 0.10 {
		t.Fatalf("online σ = %g, want within 10%% of %g", snap.Fit.Sigma, truth.Sigma)
	}
	if snap.NStar <= 0 || snap.NStar > 64 {
		t.Fatalf("online N* = %g, want an interior peak", snap.NStar)
	}
}

func TestWindowCounterGuards(t *testing.T) {
	w := NewWindow()
	t0 := time.Unix(3000, 0)
	w.Tick(t0, 100, 0)
	// Counter going backwards (restart) must not underflow.
	w.Tick(t0.Add(time.Second), 50, 2)
	snap := w.Snapshot()
	for _, l := range snap.Levels {
		if l.MeanX < 0 {
			t.Fatalf("negative throughput after counter reset: %+v", l)
		}
	}
	// Zero-dt tick must not divide by zero.
	w.Tick(t0.Add(time.Second), 60, 2)
	if w.Samples() > 2 {
		t.Fatalf("zero-dt tick recorded a sample")
	}
}
