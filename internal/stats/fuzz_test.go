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

// FuzzQuantizedEntropy pits the pooled open-addressing bin counter
// against the map reference over fuzzed values and bounds, bit for bit:
// NaN values (bin 0), quotients saturated at ±MaxInt64, a single value,
// and bounds so fine that every value lands in its own bin (the table's
// growth path). cut splits the values into two segments, which must not
// change the result either.
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
	f.Fuzz(func(t *testing.T, raw []byte, eps float64, cut uint16) {
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		want := mapQuantizedEntropy(xs, eps)
		if got := QuantizedEntropy(xs, eps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QuantizedEntropy(%v, %g) = %v, map reference %v", xs, eps, got, want)
		}
		k := 0
		if len(xs) > 0 {
			k = int(cut) % (len(xs) + 1)
		}
		if got := QuantizedEntropySeg([][]float64{xs[:k], xs[k:]}, eps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QuantizedEntropySeg split at %d = %v, map reference %v", k, got, want)
		}
	})
}
