package conformal

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// meanPredictor predicts the training mean regardless of x.
type meanPredictor struct{ mean float64 }

func (m meanPredictor) Predict(x []float64) float64 { return m.mean }

func meanFitter(x [][]float64, y []float64) (Predictor, error) {
	var s float64
	for _, v := range y {
		s += v
	}
	return meanPredictor{mean: s / float64(len(y))}, nil
}

// linFitter fits 1D OLS y = a + b·x.
func linFitter(x [][]float64, y []float64) (Predictor, error) {
	var sx, sy, sxx, sxy float64
	n := float64(len(x))
	for i := range x {
		sx += x[i][0]
		sy += y[i]
		sxx += x[i][0] * x[i][0]
		sxy += x[i][0] * y[i]
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := (sy - b*sx) / n
	return linPredictor{a, b}, nil
}

type linPredictor struct{ a, b float64 }

func (l linPredictor) Predict(x []float64) float64 { return l.a + l.b*x[0] }

func genLinear(n int, noise float64, seed int64) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		xv := rng.NormFloat64()
		x = append(x, []float64{xv})
		y = append(y, 2+3*xv+noise*rng.NormFloat64())
	}
	return x, y
}

func TestFitErrors(t *testing.T) {
	x, y := genLinear(10, 0.1, 1)
	if _, err := Fit(x[:3], y[:3], meanFitter, Config{}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("tiny data error = %v", err)
	}
	if _, err := Fit(x, y[:5], meanFitter, Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
	failing := func(x [][]float64, y []float64) (Predictor, error) {
		return nil, errors.New("boom")
	}
	if _, err := Fit(x, y, failing, Config{}); err == nil {
		t.Error("inner-fit failure swallowed")
	}
	if _, err := FitGrouped(x, y, []int{1, 2}, meanFitter, Config{}); err == nil {
		t.Error("group length mismatch accepted")
	}
}

func TestIntervalShape(t *testing.T) {
	x, y := genLinear(200, 0.5, 2)
	m, err := Fit(x, y, linFitter, Config{Lambda: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	iv := m.Predict([]float64{0.7})
	if iv.Lo > iv.Point || iv.Hi < iv.Point {
		t.Errorf("interval %v not centered on point", iv)
	}
	if width := iv.Hi - iv.Lo; math.Abs(width-2*m.Radius()) > 1e-12 {
		t.Errorf("width %g != 2·radius %g", width, m.Radius())
	}
	if !iv.Contains(iv.Point) {
		t.Error("interval excludes its own point")
	}
	if m.Lambda() != 0.1 {
		t.Errorf("Lambda = %g", m.Lambda())
	}
}

// TestCoverageGuarantee: on exchangeable data the empirical coverage of
// fresh test points must be ≥ 1−λ up to binomial fluctuation. This is the
// package's core statistical property.
func TestCoverageGuarantee(t *testing.T) {
	trials := 30
	lambda := 0.1
	covSum := 0.0
	for trial := 0; trial < trials; trial++ {
		x, y := genLinear(300, 1.0, int64(100+trial))
		tx, ty := genLinear(200, 1.0, int64(900+trial))
		m, err := Fit(x, y, linFitter, Config{Lambda: lambda, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		covSum += m.Coverage(tx, ty)
	}
	avg := covSum / float64(trials)
	if avg < 1-lambda-0.03 {
		t.Errorf("average coverage %.3f below nominal %.2f", avg, 1-lambda)
	}
	// Not absurdly conservative either (should not be ≈1 at λ=0.1 with
	// this much calibration data).
	if avg > 0.99 {
		t.Errorf("average coverage %.3f suspiciously conservative", avg)
	}
}

func TestRadiusIsCalibrationQuantile(t *testing.T) {
	// With a mean predictor and known residuals, the radius must be the
	// ⌈(1−λ)(m+1)⌉-th smallest calibration residual.
	x, y := genLinear(100, 2.0, 5)
	cfg := Config{Lambda: 0.2, CalibFraction: 0.5, Seed: 6}
	m, err := Fit(x, y, meanFitter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute expected radius by replaying the split.
	idx := rand.New(rand.NewSource(cfg.Seed)).Perm(len(x))
	nCal := int(math.Round(0.5 * float64(len(x))))
	calIdx, trainIdx := idx[:nCal], idx[nCal:]
	var mean float64
	for _, j := range trainIdx {
		mean += y[j]
	}
	mean /= float64(len(trainIdx))
	res := make([]float64, len(calIdx))
	for i, j := range calIdx {
		res[i] = math.Abs(y[j] - mean)
	}
	sort.Float64s(res)
	k := int(math.Ceil((1 - cfg.Lambda) * float64(len(res)+1)))
	if k > len(res) {
		k = len(res)
	}
	if math.Abs(m.Radius()-res[k-1]) > 1e-12 {
		t.Errorf("radius = %g, want %g", m.Radius(), res[k-1])
	}
	if m.CalibrationSize() != nCal {
		t.Errorf("calibration size = %d, want %d", m.CalibrationSize(), nCal)
	}
}

func TestSmallerLambdaWidensInterval(t *testing.T) {
	x, y := genLinear(400, 1.0, 7)
	tight, err := Fit(x, y, linFitter, Config{Lambda: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Fit(x, y, linFitter, Config{Lambda: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Radius() < tight.Radius() {
		t.Errorf("λ=0.01 radius %g < λ=0.2 radius %g", wide.Radius(), tight.Radius())
	}
}

func TestGroupedSplitHoldsOutWholeGroups(t *testing.T) {
	// Track which samples the fitter sees; no calibration group may leak
	// into training.
	n := 120
	x := make([][]float64, n)
	y := make([]float64, n)
	groups := make([]int, n)
	rng := rand.New(rand.NewSource(9))
	for i := range x {
		x[i] = []float64{rng.NormFloat64()}
		y[i] = rng.NormFloat64()
		groups[i] = i % 6
	}
	var seen map[float64]bool
	spy := func(tx [][]float64, ty []float64) (Predictor, error) {
		seen = make(map[float64]bool, len(tx))
		for _, row := range tx {
			seen[row[0]] = true
		}
		return meanPredictor{}, nil
	}
	if _, err := FitGrouped(x, y, groups, spy, Config{CalibFraction: 0.34, Seed: 10}); err != nil {
		t.Fatal(err)
	}
	// Determine which groups were (partially) seen in training; each
	// group must be entirely seen or entirely unseen.
	groupSeen := map[int]int{}
	groupTotal := map[int]int{}
	for i := range x {
		groupTotal[groups[i]]++
		if seen[x[i][0]] {
			groupSeen[groups[i]]++
		}
	}
	calGroups := 0
	for g, total := range groupTotal {
		got := groupSeen[g]
		if got != 0 && got != total {
			t.Fatalf("group %d split across train/calibration (%d/%d)", g, got, total)
		}
		if got == 0 {
			calGroups++
		}
	}
	if calGroups != 2 { // 34% of 6 groups ≈ 2
		t.Errorf("held-out groups = %d, want 2", calGroups)
	}
}

func TestGroupedFallsBackWithOneGroup(t *testing.T) {
	x, y := genLinear(50, 1, 11)
	groups := make([]int, len(x)) // all the same
	m, err := FitGrouped(x, y, groups, meanFitter, Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if m.Radius() <= 0 {
		t.Error("row-split fallback produced zero radius")
	}
}

func TestCoverageEmptyInput(t *testing.T) {
	x, y := genLinear(50, 1, 13)
	m, err := Fit(x, y, meanFitter, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m.Coverage(nil, nil)) {
		t.Error("empty coverage not NaN")
	}
}

func TestMultiSplitStabilizesRadius(t *testing.T) {
	// Across many datasets, the variance of the multi-split radius must
	// be below the single-split radius variance.
	var singles, multis []float64
	for trial := 0; trial < 15; trial++ {
		x, y := genLinear(80, 1.0, int64(500+trial))
		s, err := Fit(x, y, linFitter, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := FitMultiSplit(x, y, nil, linFitter, Config{Seed: 1}, 7)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, s.Radius())
		multis = append(multis, m.Radius())
	}
	varOf := func(xs []float64) float64 {
		var mean float64
		for _, v := range xs {
			mean += v
		}
		mean /= float64(len(xs))
		var s float64
		for _, v := range xs {
			s += (v - mean) * (v - mean)
		}
		return s / float64(len(xs))
	}
	if varOf(multis) > varOf(singles) {
		t.Errorf("multi-split radius variance %.4g not below single-split %.4g",
			varOf(multis), varOf(singles))
	}
}

func TestMultiSplitCoverage(t *testing.T) {
	x, y := genLinear(300, 1.0, 42)
	tx, ty := genLinear(200, 1.0, 43)
	m, err := FitMultiSplit(x, y, nil, linFitter, Config{Lambda: 0.1, Seed: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cov := m.Coverage(tx, ty); cov < 0.85 {
		t.Errorf("multi-split coverage %.3f", cov)
	}
	// nSplits < 1 degenerates to a single split.
	if _, err := FitMultiSplit(x, y, nil, linFitter, Config{Seed: 3}, 0); err != nil {
		t.Errorf("nSplits=0: %v", err)
	}
}

// TestMultiSplitEvenMedianAveragesMiddle: with an even number of splits
// the combined radius must be the average of the two middle per-split
// radii. The old radii[len/2] indexing returned the *upper* middle
// element, biasing every even-nSplits model systematically wide.
func TestMultiSplitEvenMedianAveragesMiddle(t *testing.T) {
	x, y := genLinear(120, 1.0, 77)
	cfg := Config{Seed: 9}

	// Reproduce the two per-split radii with the seed schedule
	// FitMultiSplit uses internally.
	var radii []float64
	for s := 0; s < 2; s++ {
		c := cfg
		c.Seed = cfg.Seed + int64(s)*1_000_003
		m, err := FitGrouped(x, y, nil, linFitter, c)
		if err != nil {
			t.Fatal(err)
		}
		radii = append(radii, m.Radius())
	}
	sort.Float64s(radii)
	if radii[0] == radii[1] {
		t.Fatalf("degenerate fixture: both split radii are %g; pick another seed", radii[0])
	}

	m, err := FitMultiSplit(x, y, nil, linFitter, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := (radii[0] + radii[1]) / 2
	if m.Radius() != want {
		t.Errorf("even-split radius = %g, want middle average %g (splits %g, %g)",
			m.Radius(), want, radii[0], radii[1])
	}
	if m.Radius() == radii[1] {
		t.Error("radius equals the upper middle element — the pre-fix bias")
	}
}
