package crest_test

import (
	"math"
	"testing"

	crest "github.com/crestlab/crest"
)

// TestPublicAPIEndToEnd walks the README quick-start path through the
// exported surface only.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds := crest.HurricaneDataset(crest.DataOptions{NZ: 12, NY: 48, NX: 48, Seed: 42})
	if len(ds.Fields) != 12 {
		t.Fatalf("%d fields", len(ds.Fields))
	}
	field := ds.Field("TC")
	comp := crest.MustCompressor("szinterp")
	const eps = 1e-3

	samples, err := crest.CollectSamples(field.Buffers[:9], comp, eps, crest.PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := crest.TrainEstimator(samples, crest.EstimatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range field.Buffers[9:] {
		feats, err := crest.ComputeFeatureVector(buf, eps, crest.PredictorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(feats) != crest.NumFeatures {
			t.Fatalf("%d features", len(feats))
		}
		e, err := est.Estimate(feats)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := crest.CompressionRatio(comp, buf, eps)
		if err != nil {
			t.Fatal(err)
		}
		truth = math.Min(truth, 100)
		if ape := 100 * math.Abs(truth-e.CR) / truth; ape > 25 {
			t.Errorf("slice %d APE %.1f%%", buf.Step, ape)
		}
		if e.Lo > e.Hi {
			t.Errorf("inverted interval [%g, %g]", e.Lo, e.Hi)
		}
	}
}

func TestPublicCompressorSurface(t *testing.T) {
	names := crest.CompressorNames()
	if len(names) != 8 {
		t.Fatalf("%d compressors", len(names))
	}
	if _, err := crest.NewCompressor("nope"); err == nil {
		t.Error("unknown compressor accepted")
	}
	buf, err := crest.NewBuffer(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Data {
		buf.Data[i] = math.Sin(float64(i) / 5)
	}
	for _, n := range names {
		c := crest.MustCompressor(n)
		maxErr, ok, err := crest.VerifyErrorBound(c, buf, 1e-4)
		if err != nil || !ok {
			t.Errorf("%s: err=%v ok=%v maxErr=%g", n, err, ok, maxErr)
		}
	}
	if _, err := crest.BufferFromSlice(2, 2, []float64{1}); err == nil {
		t.Error("bad slice accepted")
	}
	v, err := crest.NewVolume(2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Slices()) != 2 {
		t.Error("volume slicing broken")
	}
}

func TestPublicEvaluationSurface(t *testing.T) {
	ds := crest.MirandaDataset(crest.DataOptions{NZ: 10, NY: 40, NX: 40, Seed: 2})
	comp := crest.MustCompressor("zfplike")
	cache := crest.NewCRCache()
	m := crest.NewProposedMethod(crest.EstimatorConfig{})
	q, folds, err := crest.KFoldEvaluate(m, ds.Fields[0].Buffers, comp, 1e-3, 3, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 || math.IsNaN(q.Q50) {
		t.Errorf("kfold = %+v %v", q, folds)
	}
	medape, pairs, err := crest.OutOfSampleEvaluate(m, ds.Fields[0].Buffers, ds.Fields[1].Buffers, comp, 1e-3, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(ds.Fields[1].Buffers) || math.IsNaN(medape) {
		t.Error("out-of-sample surface broken")
	}
}

func TestPublicSimilaritySurface(t *testing.T) {
	ds := crest.HurricaneDataset(crest.DataOptions{NZ: 8, NY: 40, NX: 40, Seed: 4})
	sim, err := crest.FieldSimilarity(ds.Fields[:5], crest.PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Fields) != 5 {
		t.Fatalf("%d fields", len(sim.Fields))
	}
	covers := sim.Covers(1e18) // everything covers everything
	set, err := crest.MinimalTrainingSet(covers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Errorf("trivial cover size %d", len(set))
	}
	profiles, err := crest.FieldProfiles(ds.Fields[0], crest.PredictorConfig{})
	if err != nil || len(profiles) != 8 {
		t.Errorf("profiles: %v (%d)", err, len(profiles))
	}
}

func TestPublicPerfSurface(t *testing.T) {
	d := crest.RuntimeDist{Mu: 1, Sigma: 0.5}
	if crest.ExpectedMax(d, 10) <= 1 {
		t.Error("ExpectedMax of 10 samples not above the mean")
	}
	if w := crest.ParallelTime(crest.RuntimeDist{Mu: 2}, 10, 5); math.Abs(w-4) > 1e-9 {
		t.Errorf("ParallelTime = %g", w)
	}
	if m := crest.MinimalMakespan([]float64{3, 3, 2, 2, 2}, 2); math.Abs(m-6) > 1e-9 {
		t.Errorf("makespan = %g", m)
	}
	p := crest.SelectionInversionProbability([]float64{3, 2, 1}, []float64{.1, .1, .1}, []float64{.5, .5, .5})
	if math.Abs(p-0.208) > 0.005 {
		t.Errorf("inversion probability = %g", p)
	}
	if s := crest.UseCaseCSpeedup(crest.UseCaseCModel{
		Compressor: crest.RuntimeDist{Mu: 1}, Estimate: crest.RuntimeDist{Mu: 1e-9},
		Buffers: 10, Procs: 1,
	}); math.Abs(s-2) > 1e-6 {
		t.Errorf("use case C serial speedup = %g", s)
	}
	if d2 := crest.MeasureRuntime([]float64{1, 3}); d2.Mu != 2 {
		t.Errorf("MeasureRuntime = %+v", d2)
	}
	res := crest.ErrorInjectionStudy(func(eps float64) float64 {
		return 5 * math.Pow(eps/1e-6, 0.25)
	}, 20, 1e-8, 1e-1, 20, []float64{0.01}, 10, 1)
	if len(res) != 1 {
		t.Error("error injection surface broken")
	}
}

func TestPublicAnalysisSurface(t *testing.T) {
	data := [][]float64{{0, 0}, {0.1, 0.1}, {10, 10}, {10.1, 9.9}}
	scores := crest.PCAProject(data, 1)
	if len(scores) != 4 || len(scores[0]) != 1 {
		t.Fatal("PCA shape")
	}
	labels := crest.KMeansCluster(data, 2, 1)
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Errorf("clusters = %v", labels)
	}
	if k := crest.SelectClusterCount(data, 3, 1); k != 2 {
		t.Errorf("SelectClusterCount = %d", k)
	}
}

func TestPublicAggFileSurface(t *testing.T) {
	ds := crest.CESMDataset(crest.DataOptions{NZ: 6, NY: 40, NX: 40, Seed: 6})
	comp := crest.MustCompressor("digitround")
	bufs := ds.Fields[0].Buffers
	res, err := crest.ParallelWriteNoEstimate(bufs, comp, 1e-3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob := res.File.Marshal()
	f, err := crest.UnmarshalAggFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Read(0, comp)
	if err != nil {
		t.Fatal(err)
	}
	if d := bufs[0].MaxAbsDiff(dec); d > 1e-3*(1+1e-12) {
		t.Errorf("round-trip error %g", d)
	}
}

func TestPublicVolumeSurface(t *testing.T) {
	vol, err := crest.NewVolume(4, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vol.Data {
		vol.Data[i] = math.Sin(float64(i) / 9)
	}
	c3d := crest.NewSZInterp3D()
	blob, err := c3d.CompressVolume(vol, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c3d.DecompressVolume(blob)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range vol.Data {
		if d := math.Abs(vol.Data[i] - back.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-4*(1+1e-12) {
		t.Errorf("3D bound violated: %g", worst)
	}
	// Sliced helper + relative bound helper.
	comp := crest.MustCompressor("szinterp")
	blob2, err := crest.CompressVolume(comp, vol, 1e-4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crest.DecompressVolume(comp, blob2, 2); err != nil {
		t.Fatal(err)
	}
	if b := crest.RelativeBound(vol.Slice(0), 0.01); b <= 0 {
		t.Errorf("relative bound = %g", b)
	}
	// Volume-level predictors.
	vf, err := crest.ComputeVolumeFeatures(vol, 1e-4, crest.PredictorConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(vf.Mean.SD) {
		t.Error("volume features NaN")
	}
}

// TestComputeDistortionHugeRange: a valid, finite buffer whose values
// span more than MaxFloat64 (−1e308 and 1e308) gets a finite distortion
// instead of a panic in the histogram entropy.
func TestComputeDistortionHugeRange(t *testing.T) {
	buf, err := crest.NewBuffer(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Data {
		buf.Data[i] = 1e308
		if i%3 == 0 {
			buf.Data[i] = -1e308
		}
	}
	d, err := crest.ComputeDistortion(buf, 1e-3, crest.PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("distortion %v, want finite", d)
	}
}
