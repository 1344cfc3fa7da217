package predictors

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/synthdata"
)

func smoothBuf(rows, cols int, noise float64, seed int64) *grid.Buffer {
	rng := rand.New(rand.NewSource(seed))
	b := grid.NewBuffer(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			b.Set(i, j, math.Sin(float64(i)/8)*math.Cos(float64(j)/11)+noise*rng.NormFloat64())
		}
	}
	return b
}

func TestFeatureVectorOrder(t *testing.T) {
	f := Features{
		DatasetFeatures: DatasetFeatures{SD: 1, SC: 2, CodingGain: 3, CovSVDTrunc: 4},
		Distortion:      5,
	}
	v := f.Vector()
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if v[i] != want {
			t.Fatalf("Vector = %v", v)
		}
	}
	if len(FeatureNames) != NumFeatures || len(v) != NumFeatures {
		t.Error("feature arity mismatch")
	}
}

// TestFusedMatchesNaive: the fused single-pass implementation must agree
// with the unfused per-metric reference to floating-point tolerance — the
// differential test of §IV-C's optimization.
func TestFusedMatchesNaive(t *testing.T) {
	ds := synthdata.Hurricane(synthdata.Options{NZ: 3, NY: 48, NX: 48, Seed: 17})
	for _, field := range []string{"CLOUD", "TC", "V", "QVAPOR"} {
		buf := ds.Field(field).Buffers[0]
		fused, err := ComputeDataset(buf, Config{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveComputeDataset(buf, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-6
		if rel(fused.SD, naive.SD) > tol {
			t.Errorf("%s SD fused %g vs naive %g", field, fused.SD, naive.SD)
		}
		if rel(fused.SC, naive.SC) > tol {
			t.Errorf("%s SC fused %g vs naive %g", field, fused.SC, naive.SC)
		}
		if rel(fused.CodingGain, naive.CodingGain) > 1e-4 {
			t.Errorf("%s CG fused %g vs naive %g", field, fused.CodingGain, naive.CodingGain)
		}
		if fused.CovSVDTrunc != naive.CovSVDTrunc {
			t.Errorf("%s CovSVD fused %g vs naive %g", field, fused.CovSVDTrunc, naive.CovSVDTrunc)
		}
	}
}

func rel(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// TestWorkerCountInvariance: results must not depend on parallelism.
func TestWorkerCountInvariance(t *testing.T) {
	buf := smoothBuf(64, 48, 0.05, 23)
	base, err := ComputeDataset(buf, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, err := ComputeDataset(buf, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if rel(got.SD, base.SD) > 1e-9 || rel(got.SC, base.SC) > 1e-9 ||
			rel(got.CodingGain, base.CodingGain) > 1e-9 || got.CovSVDTrunc != base.CovSVDTrunc {
			t.Errorf("workers=%d results differ: %+v vs %+v", w, got, base)
		}
	}
}

// TestScaleInvariance: the four dataset features are scale- and
// shift-free, the property out-of-field transfer depends on.
func TestScaleInvariance(t *testing.T) {
	buf := smoothBuf(48, 48, 0.1, 29)
	scaled := buf.Clone()
	for i := range scaled.Data {
		scaled.Data[i] = scaled.Data[i]*12345 + 678
	}
	a, err := ComputeDataset(buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeDataset(scaled, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rel(a.SD, b.SD) > 1e-9 || rel(a.SC, b.SC) > 1e-9 ||
		rel(a.CodingGain, b.CodingGain) > 1e-7 || a.CovSVDTrunc != b.CovSVDTrunc {
		t.Errorf("scaled features differ: %+v vs %+v", a, b)
	}
}

func TestDistortionMonotoneInEps(t *testing.T) {
	buf := smoothBuf(48, 48, 0.1, 31)
	prev := math.Inf(-1)
	for _, eps := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
		d, err := ComputeEB(buf, eps, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Looser bound ⇒ lower quantized entropy ⇒ larger log-distortion.
		if d < prev-1e-9 {
			t.Errorf("distortion not nondecreasing: %g after %g at eps=%g", d, prev, eps)
		}
		prev = d
	}
}

func TestDistortionSensitiveToRoughness(t *testing.T) {
	smooth := smoothBuf(48, 48, 0.0, 37)
	noisy := smoothBuf(48, 48, 1.0, 37)
	ds, err := ComputeEB(smooth, 1e-4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := ComputeEB(noisy, 1e-4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Rough data has higher quantized entropy ⇒ lower log-distortion.
	if dn >= ds {
		t.Errorf("noisy distortion %g not below smooth %g", dn, ds)
	}
}

func TestSmootherFieldHasLowerCovSVDTrunc(t *testing.T) {
	smooth := smoothBuf(64, 64, 0.0, 41)
	noisy := smoothBuf(64, 64, 2.0, 41)
	a, err := ComputeDataset(smooth, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeDataset(noisy, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CovSVDTrunc >= b.CovSVDTrunc {
		t.Errorf("smooth CovSVD %g not below noisy %g", a.CovSVDTrunc, b.CovSVDTrunc)
	}
	if a.CodingGain <= b.CodingGain {
		t.Errorf("smooth coding gain %g not above noisy %g", a.CodingGain, b.CodingGain)
	}
}

func TestConstantBufferDegenerates(t *testing.T) {
	buf := grid.NewBuffer(32, 32)
	for i := range buf.Data {
		buf.Data[i] = 5
	}
	df, err := ComputeDataset(buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if df.SD != 0 || df.SC != 0 {
		t.Errorf("constant buffer SD=%g SC=%g", df.SD, df.SC)
	}
	if math.IsNaN(df.CodingGain) || math.IsNaN(df.CovSVDTrunc) {
		t.Error("constant buffer produced NaN features")
	}
	if _, err := ComputeEB(buf, 1e-3, Config{}); err != nil {
		t.Errorf("ComputeEB on constant buffer: %v", err)
	}
}

func TestErrors(t *testing.T) {
	tiny := grid.NewBuffer(3, 3)
	if _, err := ComputeDataset(tiny, Config{K: 8}); err == nil {
		t.Error("untileable buffer accepted")
	}
	buf := smoothBuf(16, 16, 0, 1)
	if _, err := ComputeEB(buf, 0, Config{}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := ComputeEB(buf, -1, Config{}); err == nil {
		t.Error("eps<0 accepted")
	}
}

func TestCombine(t *testing.T) {
	df := DatasetFeatures{SD: 1, SC: 2, CodingGain: 3, CovSVDTrunc: 4}
	f := Combine(df, 9)
	if f.Distortion != 9 || f.SD != 1 {
		t.Errorf("Combine = %+v", f)
	}
}

// TestSingularProfileNormalized: the profile holds the leading entries
// of σ_i / Σσ, so they are non-negative, non-increasing and sum to at
// most 1. At K = 2 the k² = 4 values all fit: they sum to 1 and the tail
// is zero.
func TestSingularProfileNormalized(t *testing.T) {
	buf := smoothBuf(48, 48, 0.2, 43)
	for _, k := range []int{8, 2} {
		df, err := ComputeDataset(buf, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		prev := math.Inf(1)
		for i, v := range df.SingularProfile {
			if v < 0 {
				t.Fatalf("K=%d: negative profile entry %d: %g", k, i, v)
			}
			if v > prev {
				t.Fatalf("K=%d: profile increases at entry %d", k, i)
			}
			if i >= k*k && v != 0 {
				t.Fatalf("K=%d: entry %d past k² is %g, want 0", k, i, v)
			}
			prev = v
			sum += v
		}
		if sum > 1+1e-12 || (k*k <= ProfileDim && math.Abs(sum-1) > 1e-9) {
			t.Errorf("K=%d: profile sums to %g", k, sum)
		}
	}
}

// TestComputeNeverNaN: features stay finite for arbitrary data.
func TestComputeNeverNaN(t *testing.T) {
	prop := func(seed int64, scaleExp int8) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := grid.NewBuffer(24, 24)
		scale := math.Pow(10, float64(scaleExp%30))
		for i := range buf.Data {
			buf.Data[i] = rng.NormFloat64() * scale
		}
		f, err := Compute(buf, 1e-3, Config{})
		if err != nil {
			return false
		}
		for _, v := range f.Vector() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestComputeVolume(t *testing.T) {
	ds := synthdata.Miranda(synthdata.Options{NZ: 6, NY: 32, NX: 32, Seed: 51})
	vol := &grid.Volume{NZ: 6, NY: 32, NX: 32, Data: nil}
	// Rebuild a volume from the field's contiguous slices.
	f := ds.Field("density")
	vol.Data = make([]float64, 0, 6*32*32)
	for _, b := range f.Buffers {
		vol.Data = append(vol.Data, b.Data...)
	}
	vf, err := ComputeVolume(vol, 1e-3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The pooled mean must match the average of per-slice features.
	var sdSum float64
	for _, b := range f.Buffers {
		df, err := ComputeDataset(b, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sdSum += df.SD
	}
	if rel(vf.Mean.SD, sdSum/6) > 1e-9 {
		t.Errorf("pooled SD %g vs mean of slices %g", vf.Mean.SD, sdSum/6)
	}
	if vf.SliceStd.SD < 0 || math.IsNaN(vf.SliceStd.SD) {
		t.Errorf("slice std = %g", vf.SliceStd.SD)
	}
	if vf.Mean.SingularProfile[0] <= 0 {
		t.Errorf("pooled singular profile %v has no leading entry", vf.Mean.SingularProfile)
	}
	if vf.Mean.Distortion == 0 {
		t.Error("volume distortion not computed")
	}
	// Workers invariance for the volume path too.
	vf2, err := ComputeVolume(vol, 1e-3, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rel(vf.Mean.SD, vf2.Mean.SD) > 1e-9 {
		t.Error("volume features depend on worker count")
	}
}
