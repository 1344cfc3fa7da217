package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %g", m)
	}
	if v := Variance(xs); !almost(v, 1.25, 1e-12) {
		t.Errorf("Variance = %g", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty/degenerate cases nonzero")
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
	}
	m1, s1 := MeanStd(xs)
	if !almost(m1, Mean(xs), 1e-9) || !almost(s1, StdDev(xs), 1e-9) {
		t.Errorf("MeanStd (%g,%g) vs two-pass (%g,%g)", m1, s1, Mean(xs), StdDev(xs))
	}
}

func TestPearsonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2*x[i] + 0.1*rng.NormFloat64()
	}
	if r := Pearson(x, x); !almost(r, 1, 1e-12) {
		t.Errorf("ρ(x,x) = %g", r)
	}
	if r := Pearson(x, y); r < 0.95 {
		t.Errorf("strong linear relation ρ = %g", r)
	}
	// Symmetry and sign flip.
	if Pearson(x, y) != Pearson(y, x) {
		t.Error("Pearson not symmetric")
	}
	neg := make([]float64, len(y))
	for i := range y {
		neg[i] = -y[i]
	}
	if r := Pearson(x, neg); !almost(r, -Pearson(x, y), 1e-12) {
		t.Errorf("sign flip ρ = %g", r)
	}
	// Scale invariance.
	scaled := make([]float64, len(y))
	for i := range y {
		scaled[i] = 100*y[i] + 5
	}
	if !almost(Pearson(x, scaled), Pearson(x, y), 1e-9) {
		t.Error("Pearson not affine invariant")
	}
	// Degenerate cases.
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant vector correlation != 0")
	}
	if Pearson(x, y[:50]) != 0 {
		t.Error("length mismatch != 0")
	}
}

func TestEuclideanDist(t *testing.T) {
	if d := EuclideanDist([]float64{0, 3}, []float64{4, 0}); !almost(d, 5, 1e-12) {
		t.Errorf("dist = %g", d)
	}
	if d := EuclideanDist(nil, nil); d != 0 {
		t.Errorf("empty dist = %g", d)
	}
}

// TestQuantize: QuantizeBin is the bin index of the paper's linear
// quantization α(x, ε) = ⌊x/ε⌋·ε (§IV-A), so it floors rather than
// truncates: negative values below a bin boundary go one bin down.
func TestQuantize(t *testing.T) {
	if b := QuantizeBin(2.7, 0.5); b != 5 {
		t.Errorf("QuantizeBin(2.7, .5) = %d", b)
	}
	if b := QuantizeBin(-2.7, 0.5); b != -6 {
		t.Errorf("QuantizeBin(-2.7, .5) = %d (floor semantics)", b)
	}
	if b := QuantizeBin(-0.1, 0.5); b != -1 {
		t.Errorf("QuantizeBin(-0.1, .5) = %d", b)
	}
}

// TestQuantizeBinSaturation: out-of-int64-range quotients must clamp to
// the range boundaries instead of hitting Go's undefined float→int
// conversion (which collapses both overflow directions onto MinInt64 on
// amd64), and NaN quotients must land in bin 0.
func TestQuantizeBinSaturation(t *testing.T) {
	cases := []struct {
		name   string
		x, eps float64
		want   int64
	}{
		{"tiny eps positive", 1e30, 1e-30, math.MaxInt64},
		{"tiny eps negative", -1e30, 1e-30, math.MinInt64},
		{"pos inf quotient", math.Inf(1), 0.5, math.MaxInt64},
		{"neg inf quotient", math.Inf(-1), 0.5, math.MinInt64},
		{"nan value", math.NaN(), 0.5, 0},
		{"zero eps", 1.0, 0, math.MaxInt64},
		{"just below 2^63", (1 << 63) - 1024, 1, (1 << 63) - 1024},
		{"exactly 2^63", 1 << 63, 1, math.MaxInt64},
		{"exactly -2^63", -(1 << 63), 1, math.MinInt64},
		{"ordinary", 2.7, 0.5, 5},
	}
	for _, c := range cases {
		if got := QuantizeBin(c.x, c.eps); got != c.want {
			t.Errorf("%s: QuantizeBin(%g, %g) = %d, want %d",
				c.name, c.x, c.eps, got, c.want)
		}
	}
	// Opposite-sign overflows must not alias into the same bin — the bug
	// the saturation fixes.
	if QuantizeBin(1e300, 1e-300) == QuantizeBin(-1e300, 1e-300) {
		t.Error("positive and negative overflow collapsed into one bin")
	}
}

func TestEntropyBasics(t *testing.T) {
	if h := mapEntropy(map[int64]int{1: 5}); h != 0 {
		t.Errorf("single symbol entropy = %g", h)
	}
	if h := mapEntropy(map[int64]int{1: 10, 2: 10}); !almost(h, 1, 1e-12) {
		t.Errorf("uniform-2 entropy = %g", h)
	}
	if h := mapEntropy(map[int64]int{}); h != 0 {
		t.Errorf("empty entropy = %g", h)
	}
}

// TestEntropyBounds: 0 ≤ H ≤ log2(#symbols), maximized by uniform.
func TestEntropyBounds(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 2
		counts := make(map[int64]int, n)
		for i := 0; i < n; i++ {
			counts[int64(i)] = rng.Intn(100) + 1
		}
		h := mapEntropy(counts)
		return h >= 0 && h <= math.Log2(float64(n))+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantizedEntropy(t *testing.T) {
	// Two well-separated values -> exactly 1 bit.
	xs := []float64{0, 0, 10, 10}
	if h := QuantizedEntropy(xs, 1); !almost(h, 1, 1e-12) {
		t.Errorf("H = %g", h)
	}
	// Coarser quantization cannot increase entropy.
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	fine := QuantizedEntropy(data, 1e-4)
	coarse := QuantizedEntropy(data, 1e-1)
	if coarse > fine {
		t.Errorf("coarse H %g > fine H %g", coarse, fine)
	}
	if h := QuantizedEntropy(data, 0); h != 0 {
		t.Error("eps=0 entropy nonzero")
	}
}

func TestHistogramEntropy(t *testing.T) {
	if h := HistogramEntropy([]float64{5, 5, 5}, 16); h != 0 {
		t.Errorf("constant histogram entropy = %g", h)
	}
	// Uniform over [0,1) with many samples ≈ log2(bins).
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	if h := HistogramEntropy(xs, 16); !almost(h, 4, 0.05) {
		t.Errorf("uniform 16-bin entropy = %g, want ≈4", h)
	}
}

// TestHistogramEntropyRangeOverflow: finite values whose range
// max − min overflows float64 must not turn the bin width into 0, a bin
// position into NaN and the cell index into MinInt64 (a panic). They
// are binned at half scale: the split between −1e308 and 1e308 is one
// bit whatever the bin count, and a value in the middle lands in the
// middle cell.
func TestHistogramEntropyRangeOverflow(t *testing.T) {
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = 1e308
		if i%2 == 0 {
			xs[i] = -1e308
		}
	}
	for _, bins := range []int{1, 2, 64, 1024} {
		want := 1.0
		if bins == 1 {
			want = 0
		}
		if h := HistogramEntropy(xs, bins); h != want {
			t.Errorf("bins=%d: H = %v, want %v", bins, h, want)
		}
	}
	three := []float64{-math.MaxFloat64, 0, math.MaxFloat64}
	var want float64
	for i, p := 0, 1.0/3; i < 3; i++ { // one value in each of three cells
		want -= p * math.Log2(p)
	}
	if h := HistogramEntropy(three, 4); h != want {
		t.Errorf("{-Max, 0, Max} over 4 bins: H = %v, want %v (log2 3)", h, want)
	}
}

func TestQuantileAgainstSorted(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 9 {
		t.Errorf("q1 = %g", q)
	}
	if q := Quantile(xs, 0.5); !almost(q, 3.5, 1e-12) {
		t.Errorf("median = %g", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
	// Quantiles (multi) matches Quantile.
	multi := Quantiles(xs, 0.1, 0.5, 0.9)
	for i, q := range []float64{0.1, 0.5, 0.9} {
		if !almost(multi[i], Quantile(xs, q), 1e-12) {
			t.Errorf("Quantiles[%d] = %g vs %g", i, multi[i], Quantile(xs, q))
		}
	}
}

// TestQuantileMonotone: quantiles are nondecreasing in q and bounded by
// the data range.
func TestQuantileMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, rng.Intn(50)+1)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 || v < sorted[0]-1e-12 || v > sorted[len(sorted)-1]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAbsPercentageError(t *testing.T) {
	if e := AbsPercentageError(10, 9); !almost(e, 10, 1e-12) {
		t.Errorf("APE = %g", e)
	}
	if e := AbsPercentageError(0, 0); e != 0 {
		t.Errorf("APE(0,0) = %g", e)
	}
	if e := AbsPercentageError(0, 1); !math.IsInf(e, 1) {
		t.Errorf("APE(0,1) = %g", e)
	}
	if e := AbsPercentageError(-10, -9); !almost(e, 10, 1e-12) {
		t.Errorf("negative-truth APE = %g", e)
	}
}

func TestMedAPE(t *testing.T) {
	truth := []float64{10, 10, 10}
	pred := []float64{9, 10, 20}
	if m := MedAPE(truth, pred); !almost(m, 10, 1e-12) {
		t.Errorf("MedAPE = %g", m)
	}
	if !math.IsNaN(MedAPE(truth, pred[:2])) {
		t.Error("length mismatch not NaN")
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999} {
		x := NormalQuantile(p)
		if back := NormalCDF(x); !almost(back, p, 1e-8) {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
	if x := NormalQuantile(0.5); !almost(x, 0, 1e-9) {
		t.Errorf("Φ⁻¹(0.5) = %g", x)
	}
	// Known value: Φ⁻¹(0.975) ≈ 1.959964.
	if x := NormalQuantile(0.975); !almost(x, 1.959964, 1e-5) {
		t.Errorf("Φ⁻¹(0.975) = %g", x)
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%g) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	for _, x := range []float64{0.3, 1.1, 2.7} {
		if s := NormalCDF(x) + NormalCDF(-x); !almost(s, 1, 1e-12) {
			t.Errorf("Φ(%g)+Φ(−%g) = %g", x, x, s)
		}
	}
}
