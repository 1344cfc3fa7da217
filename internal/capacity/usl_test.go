package capacity

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// uslPoints generates exact model samples at the given levels.
func uslPoints(lambda, sigma, kappa float64, levels []float64) []Point {
	f := Fit{Lambda: lambda, Sigma: sigma, Kappa: kappa}
	pts := make([]Point, len(levels))
	for i, n := range levels {
		pts[i] = Point{N: n, X: f.Throughput(n)}
	}
	return pts
}

var sweepLevels = []float64{1, 2, 4, 8, 16, 32, 64}

// TestFitUSLGolden pins exact recovery of known (λ, σ, κ) from
// noise-free curves, including the degenerate Amdahl (κ=0) and linear
// (σ=κ=0) forms the constraint back-off must land on exactly.
func TestFitUSLGolden(t *testing.T) {
	cases := []struct {
		name                 string
		lambda, sigma, kappa float64
	}{
		{"full", 1000, 0.05, 0.001},
		{"high-contention", 500, 0.3, 0.0004},
		{"amdahl", 1200, 0.08, 0},
		{"linear", 750, 0, 0},
		{"coherence-only", 900, 0, 0.002},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fit, err := FitUSL(uslPoints(tc.lambda, tc.sigma, tc.kappa, sweepLevels))
			if err != nil {
				t.Fatalf("FitUSL: %v", err)
			}
			relOK := func(got, want float64) bool {
				if want == 0 {
					return math.Abs(got) < 1e-9
				}
				return math.Abs(got-want)/want < 1e-6
			}
			if !relOK(fit.Lambda, tc.lambda) || !relOK(fit.Sigma, tc.sigma) || !relOK(fit.Kappa, tc.kappa) {
				t.Fatalf("fit (λ=%g σ=%g κ=%g) != truth (λ=%g σ=%g κ=%g)",
					fit.Lambda, fit.Sigma, fit.Kappa, tc.lambda, tc.sigma, tc.kappa)
			}
			if fit.R2 < 1-1e-9 {
				t.Fatalf("noise-free fit R2 = %g, want ~1", fit.R2)
			}
		})
	}
}

// TestFitUSLNoisy demands <10% relative parameter error under ±2%
// multiplicative throughput noise, and a forecast peak N* inside the
// swept range [1, 64].
func TestFitUSLNoisy(t *testing.T) {
	const lambda, sigma, kappa = 1000.0, 0.05, 0.001
	rng := rand.New(rand.NewSource(7))
	pts := uslPoints(lambda, sigma, kappa, sweepLevels)
	for i := range pts {
		pts[i].X *= 1 + 0.02*(2*rng.Float64()-1)
	}
	fit, err := FitUSL(pts)
	if err != nil {
		t.Fatalf("FitUSL: %v", err)
	}
	for _, p := range []struct {
		name      string
		got, want float64
	}{{"lambda", fit.Lambda, lambda}, {"sigma", fit.Sigma, sigma}, {"kappa", fit.Kappa, kappa}} {
		if rel := math.Abs(p.got-p.want) / p.want; rel >= 0.10 {
			t.Errorf("%s relative error %.3f >= 0.10 (got %g, want %g)", p.name, rel, p.got, p.want)
		}
	}
	lo, hi := sweepLevels[0], sweepLevels[len(sweepLevels)-1]
	if nstar, _, ok := fit.Peak(); !ok || nstar < lo || nstar > hi {
		t.Errorf("forecast N* = %g (peak %v), want inside the swept range [%g, %g]", nstar, ok, lo, hi)
	}
}

// TestFitUSLScaleInvariant: scaling every X by s must scale λ by s and
// leave σ, κ (and thus N*) unchanged — the fit is linear in y = N/X.
func TestFitUSLScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		lambda := 10 + 5000*rng.Float64()
		sigma := 0.4 * rng.Float64()
		kappa := 0.005 * rng.Float64()
		noise := make([]float64, len(sweepLevels))
		for i := range noise {
			noise[i] = 1 + 0.05*(2*rng.Float64()-1)
		}
		scale := math.Exp(6 * (2*rng.Float64() - 1)) // 1/403 .. 403×
		base := uslPoints(lambda, sigma, kappa, sweepLevels)
		scaled := make([]Point, len(base))
		for i := range base {
			base[i].X *= noise[i]
			scaled[i] = Point{N: base[i].N, X: base[i].X * scale}
		}
		f1, err1 := FitUSL(base)
		f2, err2 := FitUSL(scaled)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: fit errors %v / %v", trial, err1, err2)
		}
		if math.Abs(f2.Lambda-scale*f1.Lambda) > 1e-6*scale*f1.Lambda {
			t.Fatalf("trial %d: λ not scaled: %g vs %g×%g", trial, f2.Lambda, scale, f1.Lambda)
		}
		tol := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }
		if !tol(f1.Sigma, f2.Sigma) || !tol(f1.Kappa, f2.Kappa) {
			t.Fatalf("trial %d: (σ, κ) not scale-invariant: (%g, %g) vs (%g, %g)",
				trial, f1.Sigma, f2.Sigma, f1.Kappa, f2.Kappa)
		}
	}
}

func TestFitUSLPeak(t *testing.T) {
	fit, err := FitUSL(uslPoints(1000, 0.05, 0.001, sweepLevels))
	if err != nil {
		t.Fatalf("FitUSL: %v", err)
	}
	nstar, xpeak, ok := fit.Peak()
	if !ok {
		t.Fatal("κ>0 fit has no peak")
	}
	want := math.Sqrt((1 - 0.05) / 0.001)
	if math.Abs(nstar-want) > 1e-3 {
		t.Fatalf("N* = %g, want %g", nstar, want)
	}
	if xpeak <= 0 || xpeak < fit.Throughput(1) {
		t.Fatalf("peak throughput %g not above X(1)=%g", xpeak, fit.Throughput(1))
	}
	// Peak really is the maximum over the swept range.
	for _, n := range sweepLevels {
		if x := fit.Throughput(n); x > xpeak+1e-9 {
			t.Fatalf("X(%g)=%g exceeds reported peak %g", n, x, xpeak)
		}
	}
	// Contention past 1 makes (1−σ)/κ negative: the curve falls from
	// N = 1 on, and the peak must be N = 1, not NaN (a NaN peak broke
	// the JSON of the capacity report and of /statsz).
	steep, err := FitUSL(uslPoints(600, 1.2, 0.01, sweepLevels))
	if err != nil {
		t.Fatalf("FitUSL σ>1: %v", err)
	}
	if steep.Sigma <= 1 {
		t.Fatalf("σ>1 sweep fitted σ = %g", steep.Sigma)
	}
	if nstar, xpeak, ok := steep.Peak(); !ok || nstar != 1 || xpeak != steep.Throughput(1) {
		t.Fatalf("σ>1 peak = (%g, %g, %v), want N* = 1 at X(1) = %g", nstar, xpeak, ok, steep.Throughput(1))
	}
	// Monotone models report no interior peak.
	amdahl, err := FitUSL(uslPoints(800, 0.1, 0, sweepLevels))
	if err != nil {
		t.Fatalf("FitUSL amdahl: %v", err)
	}
	if _, _, ok := amdahl.Peak(); ok {
		t.Fatal("κ=0 fit reported an interior peak")
	}
}

func TestFitUSLErrors(t *testing.T) {
	if _, err := FitUSL([]Point{{1, 100}, {2, 150}}); !errors.Is(err, ErrFitUnderdetermined) {
		t.Fatalf("2 levels: err = %v, want ErrFitUnderdetermined", err)
	}
	// Repeated levels collapse: still underdetermined.
	if _, err := FitUSL([]Point{{1, 100}, {1, 110}, {2, 150}, {2, 140}}); !errors.Is(err, ErrFitUnderdetermined) {
		t.Fatalf("2 distinct levels: err = %v, want ErrFitUnderdetermined", err)
	}
	if _, err := FitUSL([]Point{{1, 100}, {2, 0}, {4, 300}}); !errors.Is(err, ErrFitDegenerate) {
		t.Fatalf("zero throughput: err = %v, want ErrFitDegenerate", err)
	}
	if _, err := FitUSL([]Point{{0.5, 100}, {2, 200}, {4, 300}}); !errors.Is(err, ErrFitDegenerate) {
		t.Fatalf("N<1: err = %v, want ErrFitDegenerate", err)
	}
}
