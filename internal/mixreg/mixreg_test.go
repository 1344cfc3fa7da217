package mixreg

import (
	"math"
	"math/rand"
	"testing"
)

// twoLineData draws from two linear regimes with covariate-separated
// clusters: cluster 0 lives at x≈(0,0) with y = 1 + 2x₁ − x₂, cluster 1 at
// x≈(10,10) with y = −5 + 0.5x₁ + 3x₂.
func twoLineData(n int, noise float64, seed int64) (x [][]float64, y []float64, labels []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 2
		var x1, x2 float64
		if c == 0 {
			x1, x2 = rng.NormFloat64(), rng.NormFloat64()
			y = append(y, 1+2*x1-x2+noise*rng.NormFloat64())
		} else {
			x1, x2 = 10+rng.NormFloat64(), 10+rng.NormFloat64()
			y = append(y, -5+0.5*x1+3*x2+noise*rng.NormFloat64())
		}
		x = append(x, []float64{x1, x2})
		labels = append(labels, c)
	}
	return x, y, labels
}

func TestFitSingleComponentIsLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := rng.NormFloat64(), rng.NormFloat64()
		x[i] = []float64{x1, x2}
		y[i] = 3 - 1.5*x1 + 0.5*x2
	}
	m, err := Fit(x, y, Config{L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.L != 1 {
		t.Fatalf("L = %d", m.L)
	}
	want := []float64{3, -1.5, 0.5}
	for i, w := range want {
		if math.Abs(m.Beta[0][i]-w) > 1e-4 {
			t.Errorf("beta[%d] = %g, want %g", i, m.Beta[0][i], w)
		}
	}
	// Noise-free fit: sigma at its floor.
	if m.Sigma[0] > 1e-3 {
		t.Errorf("sigma = %g for noiseless data", m.Sigma[0])
	}
}

func TestFitRecoversTwoComponents(t *testing.T) {
	x, y, _ := twoLineData(300, 0.05, 2)
	m, err := Fit(x, y, Config{L: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.L != 2 {
		t.Fatalf("L = %d", m.L)
	}
	// Both mixing weights near 1/2.
	for c := 0; c < 2; c++ {
		if m.Pi[c] < 0.4 || m.Pi[c] > 0.6 {
			t.Errorf("pi[%d] = %g", c, m.Pi[c])
		}
	}
	// One component must match each regime (order unknown).
	wantA := []float64{1, 2, -1}
	wantB := []float64{-5, 0.5, 3}
	matchA := betaClose(m.Beta[0], wantA, 0.2) || betaClose(m.Beta[1], wantA, 0.2)
	matchB := betaClose(m.Beta[0], wantB, 0.2) || betaClose(m.Beta[1], wantB, 0.2)
	if !matchA || !matchB {
		t.Errorf("components %v / %v do not match regimes", m.Beta[0], m.Beta[1])
	}
}

func betaClose(got, want []float64, tol float64) bool {
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			return false
		}
	}
	return true
}

func TestGatedPredictionRoutesByRegion(t *testing.T) {
	x, y, _ := twoLineData(300, 0.05, 4)
	m, err := Fit(x, y, Config{L: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A point deep in cluster 0 territory must be predicted by the
	// cluster-0 line, not by a π-weighted average of both.
	pred := m.Predict([]float64{0.5, -0.5})
	want := 1 + 2*0.5 - (-0.5)
	if math.Abs(pred-want) > 0.3 {
		t.Errorf("gated prediction %g, want ≈%g", pred, want)
	}
	pred2 := m.Predict([]float64{10, 10})
	want2 := -5 + 0.5*10 + 3*10.0
	if math.Abs(pred2-want2) > 1.0 {
		t.Errorf("gated prediction %g, want ≈%g", pred2, want2)
	}
	// Gate weights are a distribution.
	g := m.Gate([]float64{0, 0})
	var sum float64
	for _, w := range g {
		if w < 0 {
			t.Fatalf("negative gate %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("gate sums to %g", sum)
	}
	// Near cluster 0 the gate must favor that component decisively.
	best := 0
	for c := range g {
		if g[c] > g[best] {
			best = c
		}
	}
	if g[best] < 0.95 {
		t.Errorf("gate not decisive at a cluster center: %v", g)
	}
}

func TestAutoSelectL(t *testing.T) {
	x, y, _ := twoLineData(300, 0.05, 6)
	m, err := Fit(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.L != 2 {
		t.Errorf("auto-selected L = %d, want 2", m.L)
	}
}

func TestComponentCapOnSmallData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 10
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = rng.NormFloat64()
	}
	m, err := Fit(x, y, Config{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.L != 1 {
		t.Errorf("L = %d on 10 samples with 5 covariates, want capped to 1", m.L)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Config{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}, Config{}); err == nil {
		t.Error("ragged covariates accepted")
	}
}

func TestPredictFitsTrainingData(t *testing.T) {
	x, y, _ := twoLineData(200, 0.1, 9)
	m, err := Fit(x, y, Config{L: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range x {
		d := m.Predict(x[i]) - y[i]
		mse += d * d
	}
	mse /= float64(len(x))
	if mse > 0.1 {
		t.Errorf("training MSE = %g", mse)
	}
}

func TestDegenerateConstantTarget(t *testing.T) {
	x := make([][]float64, 30)
	y := make([]float64, 30)
	rng := rand.New(rand.NewSource(11))
	for i := range x {
		x[i] = []float64{rng.NormFloat64()}
		y[i] = 7 // constant
	}
	m, err := Fit(x, y, Config{L: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The ridge penalty shrinks the intercept by O(ridge), so allow that.
	if p := m.Predict([]float64{0.3}); math.Abs(p-7) > 1e-4 {
		t.Errorf("constant target predicted %g", p)
	}
}
