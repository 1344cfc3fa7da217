package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	q := New(1e-3, 0)
	if q.Radius() != DefaultRadius {
		t.Errorf("Radius = %d", q.Radius())
	}
}

func TestQuantizeRoundTripBound(t *testing.T) {
	q := New(0.01, 0)
	for _, r := range []float64{0, 0.004, -0.004, 0.3, -0.3, 1.999, -1.999} {
		code, ok := q.Quantize(r)
		if !ok {
			t.Fatalf("residual %g not quantizable", r)
		}
		if code == OutlierCode {
			t.Fatalf("residual %g got the outlier code", r)
		}
		if err := math.Abs(r - q.Dequantize(code)); err > 0.01+1e-15 {
			t.Errorf("residual %g error %g > eps", r, err)
		}
	}
}

func TestQuantizeOutliers(t *testing.T) {
	q := New(1e-3, 4) // tiny radius: codes cover ±8e-3 around zero
	if _, ok := q.Quantize(1.0); ok {
		t.Error("far residual quantized with tiny radius")
	}
	if _, ok := q.Quantize(math.NaN()); ok {
		t.Error("NaN quantized")
	}
	if _, ok := q.Quantize(math.Inf(1)); ok {
		t.Error("+Inf quantized")
	}
	if code, ok := q.Quantize(0); !ok || code == OutlierCode {
		t.Error("zero residual should quantize to a non-outlier code")
	}
}

func TestZeroEpsRejectsAll(t *testing.T) {
	q := New(0, 0)
	if _, ok := q.Quantize(0.5); ok {
		t.Error("eps=0 quantized a value")
	}
}

// TestQuantizeProperty: whenever Quantize says ok, the reconstruction is
// within eps, the code is in (0, 2·radius], and Dequantize is exact-inverse
// of the bin center.
func TestQuantizeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := math.Pow(10, -float64(rng.Intn(8)))
		q := New(eps, 1<<uint(rng.Intn(12)+2))
		for i := 0; i < 200; i++ {
			r := rng.NormFloat64() * eps * math.Pow(10, float64(rng.Intn(6)-2))
			code, ok := q.Quantize(r)
			if !ok {
				continue
			}
			if code == OutlierCode || int(code) > 2*q.Radius() {
				return false
			}
			if math.Abs(r-q.Dequantize(code)) > eps*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCodesAreContiguousBins(t *testing.T) {
	q := New(0.5, 8)
	// Residuals exactly at bin centers map to distinct consecutive codes.
	prev := uint32(0)
	for k := -7; k <= 8; k++ {
		r := float64(k) * 2 * 0.5
		code, ok := q.Quantize(r)
		if !ok {
			t.Fatalf("bin center %g rejected", r)
		}
		if k > -7 && code != prev+1 {
			t.Fatalf("codes not contiguous at k=%d: %d after %d", k, code, prev)
		}
		prev = code
	}
}
