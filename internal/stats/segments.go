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
	// A range past MaxFloat64 (values near ±MaxFloat64 of both signs) is
	// binned at half scale: halving keeps the order of the values, is
	// exact for all but subnormals, and brings the range under
	// MaxFloat64. Every range that is finite keeps scale 1 and its bits.
	scale := 1.0
	if math.IsInf(hi-lo, 0) {
		scale = 0.5
	}
	lo *= scale
	bc := binPool.Get().(*binCounter)
	defer bc.release()
	counts := bc.cells(bins)
	w := float64(bins) / (hi*scale - lo)
	for _, s := range segs {
		for _, raw := range s {
			b := int((float64(raw)*scale - lo) * w)
			if uint(b) >= uint(bins) { // also a NaN position from ±Inf or NaN values
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
//
// QuantizeBin is monotone in x, so every bin lies between the bins of
// the smallest and the largest value. When every value is finite and
// that span is at most densePerValue·n bins, the bins are counted by
// direct index into a pooled array: no hash, no probing, and no
// collision a client could choose. Wider spans and non-finite values
// (NaN and ±Inf bins are 0 and the saturated ends) go to the hashed
// table. Either way the entropy is summed over the same multiset of
// counts in the same order, so the path never changes a bit.
func QuantizedEntropySeg[F Real](segs [][]F, eps float64) float64 {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	if eps <= 0 || n == 0 {
		return 0
	}
	lo, w, dense := denseBins(segs, eps, n)
	return quantizedEntropy(segs, eps, n, lo, w, dense)
}

// denseBins reports whether the n values of segs take the dense path at
// eps: all finite, and their bins lo..lo+w−1 no more than
// densePerValue·n. The span is taken in uint64, which holds the
// distance between any two int64 bins, and is compared without forming
// densePerValue·n, so neither overflows nor truncates on a 32-bit int.
func denseBins[F Real](segs [][]F, eps float64, n int) (lo int64, w int, ok bool) {
	vmin, vmax := math.Inf(1), math.Inf(-1)
	for _, s := range segs {
		for _, raw := range s {
			x := float64(raw)
			if !(x >= vmin && x <= vmax) { // a new extreme, or NaN
				if x != x {
					return 0, 0, false
				}
				vmin, vmax = min(vmin, x), max(vmax, x)
			}
		}
	}
	if math.IsInf(vmin, 0) || math.IsInf(vmax, 0) {
		return 0, 0, false
	}
	lo = QuantizeBin(vmin, eps)
	span := uint64(QuantizeBin(vmax, eps)) - uint64(lo)
	if span/densePerValue >= uint64(n) || span >= math.MaxInt || uint64(n) > math.MaxUint32 {
		return 0, 0, false
	}
	return lo, int(span) + 1, true
}

// quantizedEntropy counts the bins of the n values of segs at eps —
// in the dense array of the w bins from lo when dense is set, else in
// the hashed table — and returns their entropy.
func quantizedEntropy[F Real](segs [][]F, eps float64, n int, lo int64, w int, dense bool) float64 {
	bc := binPool.Get().(*binCounter)
	defer bc.release()
	var maxC int
	if dense {
		d := bc.denseCounts(w)
		for _, s := range segs {
			countDense(s, eps, lo, d)
		}
		maxC = bc.tallyDense(d, n)
	} else {
		for _, s := range segs {
			for _, v := range s {
				bc.add(QuantizeBin(float64(v), eps))
			}
		}
		maxC = bc.tallyTable(n)
	}
	return bc.entropy(n, maxC)
}

// countDense adds the bins of s at eps to d, the counts of the bins
// from lo on.
func countDense[F Real](s []F, eps float64, lo int64, d []uint32) {
	for _, v := range s {
		d[uint64(QuantizeBin(float64(v), eps))-uint64(lo)]++
	}
}
