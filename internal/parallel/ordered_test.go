package parallel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// orderSensitiveTerms returns values spanning many magnitudes, so any
// reassociation of the floating-point sum changes low-order bits and is
// caught by exact comparison.
func orderSensitiveTerms(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(40)))
	}
	return xs
}

// TestSumOrderedMatchesSerial: the result must equal the plain serial
// left-to-right fold bit for bit.
func TestSumOrderedMatchesSerial(t *testing.T) {
	xs := orderSensitiveTerms(10007, 1)
	var want float64
	for _, v := range xs {
		want += v
	}
	for _, w := range []int{1, 2, 3, 8, 33} {
		got := sumOrdered(len(xs), w, func(i int) float64 { return xs[i] })
		if got != want {
			t.Fatalf("workers=%d: SumOrdered = %x, serial = %x", w, got, want)
		}
	}
}

// TestSumOrderedWorkerInvariance: repeated runs across worker counts must
// be bit-identical — the property the CAS Float64 accumulator lacks.
func TestSumOrderedWorkerInvariance(t *testing.T) {
	prop := func(seed int64, w8 uint8) bool {
		n := 1 + int(seed%997+997)%997
		xs := orderSensitiveTerms(n, seed)
		base := sumOrdered(n, 1, func(i int) float64 { return xs[i] })
		w := 1 + int(w8%16)
		for rep := 0; rep < 3; rep++ {
			if sumOrdered(n, w, func(i int) float64 { return xs[i] }) != base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSumOrderedEdgeCases(t *testing.T) {
	if got := sumOrdered(0, 4, func(int) float64 { panic("called") }); got != 0 {
		t.Errorf("sumOrdered(0) = %g", got)
	}
	if got := sumOrdered(-3, 4, func(int) float64 { panic("called") }); got != 0 {
		t.Errorf("sumOrdered(-3) = %g", got)
	}
	if got := SumOrderedInto(nil, 4, func(int) float64 { panic("called") }); got != 0 {
		t.Errorf("SumOrderedInto(nil) = %g", got)
	}
}

// TestSumOrderedIntoReusesScratch: the scratch buffer is fully
// overwritten, so stale contents cannot leak into the sum.
func TestSumOrderedIntoReusesScratch(t *testing.T) {
	scratch := []float64{1e300, 1e300, 1e300}
	got := SumOrderedInto(scratch, 2, func(i int) float64 { return float64(i) })
	if got != 3 {
		t.Errorf("SumOrderedInto = %g, want 3", got)
	}
}

// sumOrdered is SumOrderedInto over n terms with fresh scratch, or 0 for
// n ≤ 0.
func sumOrdered(n, workers int, term func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	return SumOrderedInto(make([]float64, n), workers, term)
}
