package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantizeBin hardens the bin-index computation against the full
// float64 input space: the result must always be the saturated floor of
// x/eps — in particular, never the platform's undefined-conversion
// sentinel for quotients outside the int64 range — and must stay
// monotone in x for fixed positive eps.
func FuzzQuantizeBin(f *testing.F) {
	f.Add(2.7, 0.5)
	f.Add(-0.1, 0.5)
	f.Add(1e30, 1e-30)  // positive overflow
	f.Add(-1e30, 1e-30) // negative overflow
	f.Add(math.NaN(), 0.5)
	f.Add(1.0, math.SmallestNonzeroFloat64) // tiny eps
	f.Add(math.MaxFloat64, 1e-9)
	f.Add(0.0, 0.0)
	f.Fuzz(func(t *testing.T, x, eps float64) {
		got := QuantizeBin(x, eps)
		q := math.Floor(x / eps)
		switch {
		case math.IsNaN(q):
			if got != 0 {
				t.Fatalf("QuantizeBin(%g, %g) = %d for NaN quotient, want 0", x, eps, got)
			}
		case q >= math.MaxInt64:
			if got != math.MaxInt64 {
				t.Fatalf("QuantizeBin(%g, %g) = %d, want saturated MaxInt64", x, eps, got)
			}
		case q <= math.MinInt64:
			if got != math.MinInt64 {
				t.Fatalf("QuantizeBin(%g, %g) = %d, want saturated MinInt64", x, eps, got)
			}
		default:
			if got != int64(q) {
				t.Fatalf("QuantizeBin(%g, %g) = %d, want %d", x, eps, got, int64(q))
			}
		}
		// Monotonicity in x for positive finite eps and finite x: a larger
		// value can never land in a smaller bin.
		if eps > 0 && !math.IsInf(eps, 0) && !math.IsNaN(x) && !math.IsInf(x, 0) {
			bigger := math.Nextafter(x, math.Inf(1))
			if !math.IsInf(bigger, 0) {
				if gb := QuantizeBin(bigger, eps); gb < got {
					t.Fatalf("monotonicity broken: bin(%g)=%d > bin(%g)=%d for eps=%g",
						x, got, bigger, gb, eps)
				}
			}
		}
	})
}

// FuzzQuantizedEntropy pits the pooled bin counter against the map
// reference over fuzzed values and bounds, bit for bit: NaN values
// (bin 0), quotients saturated at ±MaxInt64, a single value, bounds so
// fine that every value lands in its own bin (the table's growth path),
// bins spanning at most 8n (the dense path) and just past it. A
// non-finite value must never take the dense path. cut splits the
// values into two segments and into runs of 1 + cut%7 values, and
// their float32 narrowing is held to the reference over the widened
// values; none of these may change the result.
func FuzzQuantizedEntropy(f *testing.F) {
	seed := func(eps float64, cut uint16, xs ...float64) {
		raw := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(raw, eps, cut)
	}
	seed(0.5, 1, 2.7, -0.1, 2.7, 3.3)
	seed(0.5, 0, math.NaN(), 1, math.NaN(), -1)
	seed(1e-300, 1, 1e300, -1e300, 5, math.Inf(1), math.Inf(-1))
	seed(1e-3, 0, 42)
	fine := make([]float64, 300)
	for i := range fine {
		fine[i] = float64(i) * 1.000001
	}
	seed(1e-9, 150, fine...)
	seed(0, 0, 1, 2)
	smooth := make([]float64, 200)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 17)
	}
	seed(1e-2, 45, smooth...)                // dense: 200 bins for 200 values
	seed(1, 3, 0, 3, 15)                     // bins 0..15: exactly 8n for n = 2
	seed(1, 3, 0, 3, 16)                     // bins 0..16: 8n+1
	seed(1e-300, 2, 1e300, -1e300, 1e300, 0) // bins saturated at ±MaxInt64
	seed(1, 5, 1, 2, math.NaN(), 3)          // NaN in a narrow span: the table
	seed(1, 1, 1, 2, math.Inf(1), 3)
	seed(1, 2, -2, math.Inf(-1), 4, 4)
	seed(0.25, 4, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7) // many segments
	f.Fuzz(func(t *testing.T, raw []byte, eps float64, cut uint16) {
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		want := mapQuantizedEntropy(xs, eps)
		if got := QuantizedEntropy(xs, eps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QuantizedEntropy(%v, %g) = %v, map reference %v", xs, eps, got, want)
		}
		if len(xs) > 0 {
			_, w, dense := denseBins([][]float64{xs}, eps, len(xs))
			for _, x := range xs {
				if dense && (math.IsNaN(x) || math.IsInf(x, 0)) {
					t.Fatalf("%v at ε = %g: dense path with a non-finite value", xs, eps)
				}
			}
			if dense && w > densePerValue*len(xs) {
				t.Fatalf("%v at ε = %g: dense path over %d bins for %d values", xs, eps, w, len(xs))
			}
		}
		k := 0
		if len(xs) > 0 {
			k = int(cut) % (len(xs) + 1)
		}
		if got := QuantizedEntropySeg([][]float64{xs[:k], xs[k:]}, eps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QuantizedEntropySeg split at %d = %v, map reference %v", k, got, want)
		}
		var runs [][]float64
		for rest, m := xs, 1+int(cut)%7; len(rest) > 0; rest = rest[min(m, len(rest)):] {
			runs = append(runs, rest[:min(m, len(rest))])
		}
		if got := QuantizedEntropySeg(runs, eps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QuantizedEntropySeg over %d runs = %v, map reference %v", len(runs), got, want)
		}
		x32, wide := make([]float32, len(xs)), make([]float64, len(xs))
		for i, x := range xs {
			x32[i] = float32(x)
			wide[i] = float64(x32[i])
		}
		want32 := mapQuantizedEntropy(wide, eps)
		if got := QuantizedEntropySeg([][]float32{x32[:k], x32[k:]}, eps); math.Float64bits(got) != math.Float64bits(want32) {
			t.Fatalf("float32 QuantizedEntropySeg(%v, %g) = %v, map reference %v", x32, eps, got, want32)
		}
	})
}

// FuzzHistogramEntropy checks the histogram entropy over fuzzed values
// and bin counts: it must not panic (the finite values ±1e308, whose
// range overflows float64, once did), must lie in [0, log2(bins)] for
// finite values, and must not depend on how the values are split into
// segments or on a float32 segment against its widened values.
func FuzzHistogramEntropy(f *testing.F) {
	seed := func(bins uint16, cut uint16, xs ...float64) {
		raw := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(raw, bins, cut)
	}
	seed(16, 1, 0.5, 1.5, -2, 3, 3)
	seed(64, 2, -1e308, 1e308, 0, 1e308, -1e308) // range overflows float64
	seed(4, 1, -math.MaxFloat64, math.MaxFloat64)
	seed(8, 0, math.NaN(), 1, 2)
	seed(8, 1, 1, math.Inf(1), -3)
	seed(1, 0, 7, 7, 7)
	f.Fuzz(func(t *testing.T, raw []byte, binsRaw uint16, cut uint16) {
		xs := make([]float64, len(raw)/8)
		finite := true
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			finite = finite && !math.IsNaN(xs[i]) && !math.IsInf(xs[i], 0)
		}
		bins := 1 + int(binsRaw)%4096
		h := HistogramEntropy(xs, bins)
		if finite && !(h >= 0 && h <= math.Log2(float64(bins))+1e-9) {
			t.Fatalf("HistogramEntropy(%v, %d) = %v, outside [0, log2(bins)]", xs, bins, h)
		}
		k := 0
		if len(xs) > 0 {
			k = int(cut) % (len(xs) + 1)
		}
		if got := HistogramEntropySeg([][]float64{xs[:k], nil, xs[k:]}, bins); math.Float64bits(got) != math.Float64bits(h) {
			t.Fatalf("HistogramEntropySeg split at %d = %v, one segment %v", k, got, h)
		}
		x32, wide := make([]float32, len(xs)), make([]float64, len(xs))
		for i, x := range xs {
			x32[i] = float32(x)
			wide[i] = float64(x32[i])
		}
		if got, want := HistogramEntropySeg([][]float32{x32}, bins), HistogramEntropy(wide, bins); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float32 HistogramEntropySeg = %v, widened %v", got, want)
		}
	})
}
