// Package quant implements the error-controlled linear quantizer shared by
// the SZ-family compressors: prediction errors are mapped to integer codes
// with bin width 2ε so that reconstruction stays within the absolute error
// bound, and values that fall outside the code range escape as exact
// outliers (the "unpredictable data" path of SZ).
package quant

import "math"

// DefaultRadius is the default quantization radius (half the code range),
// matching SZ's default of 2^15 intervals.
const DefaultRadius = 32768

// OutlierCode is the reserved symbol for unpredictable values stored
// verbatim.
const OutlierCode = 0

// Quantizer maps prediction residuals to integer codes with guaranteed
// |residual - Dequantize(code)| ≤ ε for non-outlier codes.
type Quantizer struct {
	eps    float64
	radius int
}

// New returns a quantizer for absolute error bound eps with the given
// radius (codes span [1, 2*radius]; 0 is the outlier escape). A
// non-positive radius selects DefaultRadius.
func New(eps float64, radius int) *Quantizer {
	if radius <= 0 {
		radius = DefaultRadius
	}
	return &Quantizer{eps: eps, radius: radius}
}

// Radius returns the quantization radius.
func (q *Quantizer) Radius() int { return q.radius }

// Quantize returns the code for residual r and whether it was quantizable.
// Codes are in [1, 2*radius]; ok=false means the caller must store the
// value exactly and emit OutlierCode.
func (q *Quantizer) Quantize(r float64) (code uint32, ok bool) {
	if q.eps <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return OutlierCode, false
	}
	bin := math.Round(r / (2 * q.eps))
	if bin < float64(-q.radius+1) || bin > float64(q.radius) {
		return OutlierCode, false
	}
	return uint32(int(bin) + q.radius), true
}

// Dequantize returns the reconstructed residual for a non-outlier code.
func (q *Quantizer) Dequantize(code uint32) float64 {
	return float64(int(code)-q.radius) * 2 * q.eps
}
