package stats

import "math"

// segments.go holds the one implementation of each entropy estimator,
// computed over a virtual concatenation of slices. The streaming
// predictor pipeline — whose retained values live scattered across
// vectorized blocks plus a crop remainder rather than in one row-major
// buffer — feeds the segments directly, so it evaluates the
// error-bound-specific distortion without reassembling the buffer;
// HistogramEntropy and QuantizedEntropy are the one-segment case.
//
// Bit-identity contract: both estimators are functions of the value
// *multiset* only. Min/max are order-independent; bin counts are integer
// tallies; and the final entropy sums run in a canonical order (bin index
// for the histogram, ascending count for the quantized form — see
// binCounter.entropy). Any concatenation order of the same values
// therefore gives the same bits, which the streaming differential suite
// pins against the in-memory path.
//
// Both estimators are generic over the stored element type: float32
// segments are widened per element (exactly) and every accumulation,
// bin-edge computation, and entropy sum runs in float64, so feeding
// float32 segments is bit-identical to widening them first and calling
// the float64 form.

// Real is the element-type constraint of the segment estimators.
type Real interface{ ~float32 | ~float64 }

// HistogramEntropySeg is HistogramEntropy over the concatenation of segs.
func HistogramEntropySeg[F Real](segs [][]F, bins int) float64 {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	if n == 0 || bins <= 0 {
		return 0
	}
	first := true
	var lo, hi float64
	for _, s := range segs {
		for _, raw := range s {
			v := float64(raw)
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi == lo {
		return 0
	}
	bc := binPool.Get().(*binCounter)
	defer bc.release()
	counts := bc.cells(bins)
	w := float64(bins) / (hi - lo)
	for _, s := range segs {
		for _, raw := range s {
			b := int((float64(raw) - lo) * w)
			if b >= bins {
				b = bins - 1
			}
			counts[b]++
		}
	}
	var h float64
	fn := float64(n)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log2(p)
	}
	return h
}

// QuantizedEntropySeg is QuantizedEntropy over the concatenation of segs.
func QuantizedEntropySeg[F Real](segs [][]F, eps float64) float64 {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	if eps <= 0 || n == 0 {
		return 0
	}
	bc := binPool.Get().(*binCounter)
	defer bc.release()
	for _, s := range segs {
		for _, v := range s {
			bc.add(QuantizeBin(float64(v), eps))
		}
	}
	return bc.entropy(n)
}
