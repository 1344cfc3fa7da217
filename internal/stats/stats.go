// Package stats implements the scalar statistics shared by the
// compressibility predictors and the evaluation harness: moments, Shannon
// and quantized entropy, the paper's linear quantizer, Pearson correlation,
// quantiles and the median absolute percentage error.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or 0 for
// an empty slice.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation sd(x), the paper's
// intra-block weight w^intra.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStd returns mean and population standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	var s, s2 float64
	for _, v := range xs {
		s += v
		s2 += v * v
	}
	mean = s / float64(n)
	v := s2/float64(n) - mean*mean
	if v < 0 {
		v = 0 // numerical guard
	}
	return mean, math.Sqrt(v)
}

// Pearson returns the Pearson correlation coefficient ρ(x, y). It returns 0
// when either vector is constant or lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// EuclideanDist returns the Euclidean distance between equal-length vectors,
// the D^e_{b,b'} term of the spatial-diversity weights.
func EuclideanDist(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Quantize applies the paper's linear quantization scheme
// α(x, ε) = ⌊x/ε⌋·ε used by the generic distortion metric (§IV-A).
func Quantize(x, eps float64) float64 {
	if eps <= 0 {
		return x
	}
	return math.Floor(x/eps) * eps
}

// QuantizeBin returns the integer bin index ⌊x/ε⌋, saturated to the int64
// range. For tiny ε (or huge x) the quotient overflows int64, and the bare
// conversion int64(float64) is undefined for out-of-range values — on
// amd64 it yields the sentinel 0x8000000000000000 for *both* directions,
// silently aliasing +∞-side and −∞-side bins into one histogram bucket.
// NaN quotients (x = ±Inf·0 interactions upstream) map to bin 0 rather
// than poisoning the histogram with the platform sentinel.
func QuantizeBin(x, eps float64) int64 {
	q := math.Floor(x / eps)
	switch {
	case math.IsNaN(q):
		return 0
	case q >= math.MaxInt64: // 2⁶³ is exact in float64; q ≥ 2⁶³ overflows
		return math.MaxInt64
	case q <= math.MinInt64:
		return math.MinInt64
	}
	return int64(q)
}

// QuantizedEntropy returns the Shannon entropy in bits of ⌊x/ε⌋ over xs,
// the quantized entropy H(α(X)) of the generic distortion metric. It is
// the one-segment case of QuantizedEntropySeg.
func QuantizedEntropy(xs []float64, eps float64) float64 {
	return QuantizedEntropySeg([][]float64{xs}, eps)
}

// HistogramEntropy estimates the entropy in bits of xs using an
// equal-width histogram with bins cells spanning [min,max]. It is the
// nonparametric empirical-distribution estimator used for H_b in the
// generic distortion (§IV-A). Constant data has zero entropy. It is the
// one-segment case of HistogramEntropySeg.
func HistogramEntropy(xs []float64, bins int) float64 {
	return HistogramEntropySeg([][]float64{xs}, bins)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (R type-7). xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// Quantiles returns multiple quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = sortedQuantile(s, q)
	}
	return out
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 50% quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// AbsPercentageError returns 100·|true−pred|/|true|, the APE of Algorithm 2
// line 14. It returns +Inf when the true value is zero and pred differs.
func AbsPercentageError(truth, pred float64) float64 {
	if truth == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Abs(truth-pred) / math.Abs(truth)
}

// MedAPE returns the median absolute percentage error between parallel
// slices of true and predicted values.
func MedAPE(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	apes := make([]float64, len(truth))
	for i := range truth {
		apes[i] = AbsPercentageError(truth[i], pred[i])
	}
	return Median(apes)
}

// NormalQuantile returns Φ⁻¹(p), the quantile function of the standard
// normal distribution, via the Acklam rational approximation (relative
// error < 1.15e-9). It panics for p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	// Coefficients of the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormalCDF returns Φ(x), the standard normal cumulative distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
