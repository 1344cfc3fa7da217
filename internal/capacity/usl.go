package capacity

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is one measured (concurrency, throughput) sample of a load
// sweep: X requests per second observed at offered concurrency N.
type Point struct {
	N float64 `json:"n"`
	X float64 `json:"x"`
}

// Fit is a fitted Universal Scalability Law model
//
//	X(N) = λN / (1 + σ(N−1) + κN(N−1))
//
// λ (Lambda) is the single-stream throughput X(1), σ (Sigma) the
// contention fraction — the Amdahl serial part, bounding X at λ/σ — and
// κ (Kappa) the coherence penalty, whose N² crosstalk term makes
// throughput *retrograde* past N* = √((1−σ)/κ).
type Fit struct {
	Lambda float64 `json:"lambda"`
	Sigma  float64 `json:"sigma"`
	Kappa  float64 `json:"kappa"`
	// R2 is the coefficient of determination of the fit against the
	// measured throughputs (1 = perfect).
	R2 float64 `json:"r2"`
	// Points is how many (N, X) samples the fit consumed.
	Points int `json:"points"`
}

// Throughput evaluates the fitted model at concurrency n.
func (f Fit) Throughput(n float64) float64 {
	den := 1 + f.Sigma*(n-1) + f.Kappa*n*(n-1)
	if den <= 0 {
		return 0
	}
	return f.Lambda * n / den
}

// Peak returns the concurrency N* and throughput X(N*) at the model's
// interior maximum. ok is false when κ = 0: the curve is monotone
// (Amdahl or linear) and has no saturation peak — throughput approaches
// λ/σ asymptotically (or grows without bound when σ = 0 too). The fit
// does not bound σ above; with σ ≥ 1 the curve falls from N = 1 on,
// (1−σ)/κ has no real square root, and N* is 1.
func (f Fit) Peak() (nstar, xpeak float64, ok bool) {
	if f.Kappa <= 0 {
		return 0, 0, false
	}
	nstar = 1
	if r := (1 - f.Sigma) / f.Kappa; r > 1 {
		nstar = math.Sqrt(r)
	}
	return nstar, f.Throughput(nstar), true
}

// ErrFitUnderdetermined reports too few distinct concurrency levels to
// fit the model.
var ErrFitUnderdetermined = errors.New("capacity: need at least 3 distinct concurrency levels to fit USL")

// ErrFitDegenerate reports measurements no physical USL curve explains
// (non-positive throughputs, or a fit with λ ≤ 0).
var ErrFitDegenerate = errors.New("capacity: degenerate USL fit")

// FitUSL estimates (λ, σ, κ) from measured (N, X) samples by least
// squares on the linearized form: with y = N/X,
//
//	y = a + b(N−1) + cN(N−1),  λ = 1/a, σ = b/a, κ = c/a.
//
// The physical constraints σ ≥ 0, κ ≥ 0 are enforced by backing off to
// the reduced model when an unconstrained coefficient comes out
// negative: κ < 0 refits the Amdahl form (κ = 0), and σ < 0 then refits
// the linear form (σ = 0) — so the degenerate cases are recovered
// exactly instead of with small negative noise. The fit is scale
// invariant in λ: scaling every X by s scales λ by s and leaves σ and κ
// unchanged (the normal equations are linear in y = N/X).
func FitUSL(points []Point) (Fit, error) {
	// Deduplicate by N (average X of repeated levels) and validate.
	byN := make(map[float64][]float64)
	for _, p := range points {
		if !(p.N >= 1) || math.IsInf(p.N, 0) {
			return Fit{}, fmt.Errorf("%w: concurrency %g < 1", ErrFitDegenerate, p.N)
		}
		if !(p.X > 0) || math.IsInf(p.X, 0) {
			return Fit{}, fmt.Errorf("%w: non-positive throughput %g at N=%g", ErrFitDegenerate, p.X, p.N)
		}
		byN[p.N] = append(byN[p.N], p.X)
	}
	if len(byN) < 3 {
		return Fit{}, fmt.Errorf("%w (got %d)", ErrFitUnderdetermined, len(byN))
	}
	ns := make([]float64, 0, len(byN))
	for n := range byN {
		ns = append(ns, n)
	}
	sort.Float64s(ns)
	xs := make([]float64, len(ns))
	for i, n := range ns {
		sum := 0.0
		for _, x := range byN[n] {
			sum += x
		}
		xs[i] = sum / float64(len(byN[n]))
	}

	// Basis columns for y = N/X: [1, N−1, N(N−1)]. cols selects the
	// active subset; dropped coefficients are pinned at 0.
	basis := func(n float64) [3]float64 { return [3]float64{1, n - 1, n * (n - 1)} }
	solve := func(cols []int) ([3]float64, bool) {
		var ata [3][3]float64
		var aty [3]float64
		for i, n := range ns {
			b := basis(n)
			y := n / xs[i]
			for r, br := range cols {
				aty[r] += b[br] * y
				for c, bc := range cols {
					ata[r][c] += b[br] * b[bc]
				}
			}
		}
		sol, ok := gauss3(ata, aty, len(cols))
		var coef [3]float64
		for i, bc := range cols {
			coef[bc] = sol[i]
		}
		return coef, ok
	}

	// The physical constraints σ ≥ 0, κ ≥ 0 bind by dropping the
	// offending basis column and refitting, so the degenerate Amdahl
	// (κ = 0) and linear (σ = κ = 0) cases come out exact.
	coef, ok := solve([]int{0, 1, 2})
	if ok {
		switch {
		case coef[2] < 0 && coef[1] >= 0:
			coef, ok = solve([]int{0, 1}) // κ = 0: Amdahl
		case coef[1] < 0 && coef[2] >= 0:
			coef, ok = solve([]int{0, 2}) // σ = 0, coherence only
		case coef[1] < 0 && coef[2] < 0:
			coef, ok = solve([]int{0}) // σ = κ = 0: linear
		}
	}
	if ok && (coef[1] < 0 || coef[2] < 0) {
		// A reduced refit crossed the other constraint: linear model.
		coef, ok = solve([]int{0})
	}
	if !ok || coef[0] <= 0 {
		return Fit{}, fmt.Errorf("%w: singular or non-positive λ", ErrFitDegenerate)
	}
	f := Fit{
		Lambda: 1 / coef[0],
		Sigma:  coef[1] / coef[0],
		Kappa:  coef[2] / coef[0],
		Points: len(points),
	}

	// R² against the measured throughputs (not the transformed y), so
	// the headline number describes the curve the operator sees.
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ssRes, ssTot float64
	for i, n := range ns {
		d := xs[i] - f.Throughput(n)
		ssRes += d * d
		t := xs[i] - mean
		ssTot += t * t
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		f.R2 = 1
	}
	return f, nil
}

// gauss3 solves the leading k×k block of a 3×3 system by Gaussian
// elimination with partial pivoting.
func gauss3(a [3][3]float64, b [3]float64, k int) ([3]float64, bool) {
	var x [3]float64
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return x, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < k; r++ {
			m := a[r][col] / a[col][col]
			for c := col; c < k; c++ {
				a[r][c] -= m * a[col][c]
			}
			b[r] -= m * b[col]
		}
	}
	for r := k - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < k; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}
