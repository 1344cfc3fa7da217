package crest_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"

	crest "github.com/crestlab/crest"
)

// TestSnapshotRoundTripBitIdentityAcrossEvalCorpus is the durability
// differential check: an estimator trained on real collected samples is
// saved and reloaded through the public snapshot API, and the restored
// model must return bit-identical estimates (CR, Lo, Hi as exact
// float64s) for every buffer × error bound of the evaluation corpus. Any
// divergence means a restart silently shifts predictions — the failure
// the snapshot format exists to prevent.
func TestSnapshotRoundTripBitIdentityAcrossEvalCorpus(t *testing.T) {
	ds := crest.HurricaneDataset(crest.DataOptions{NZ: 10, NY: 24, NX: 24, Seed: 3})
	field := ds.Fields[0]
	comp, err := crest.NewCompressor("szinterp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := crest.EstimatorConfig{Predictors: crest.PredictorConfig{Workers: 1}}
	epses := []float64{1e-2, 1e-3}

	// Train on the first 6 buffers; the rest are the held-out eval fold.
	var samples []crest.Sample
	for _, eps := range epses {
		s, err := crest.CollectSamplesContext(context.Background(), field.Buffers[:6], comp, eps, cfg.Predictors, 1)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s...)
	}
	est, err := crest.TrainEstimator(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path, err := crest.WriteNewEstimator(dir, est)
	if err != nil {
		t.Fatal(err)
	}
	loaded, from, err := crest.LoadLatestEstimator(dir)
	if err != nil {
		t.Fatal(err)
	}
	if from != path {
		t.Fatalf("loaded %s, wrote %s", from, path)
	}
	if loaded.FellBack() != est.FellBack() || loaded.IntervalRadius() != est.IntervalRadius() {
		t.Fatalf("model metadata diverged: FellBack %v/%v radius %v/%v",
			loaded.FellBack(), est.FellBack(), loaded.IntervalRadius(), est.IntervalRadius())
	}

	checked := 0
	for _, buf := range field.Buffers {
		for _, eps := range epses {
			feats, err := crest.ComputeFeatureVector(buf, eps, cfg.Predictors)
			if err != nil {
				t.Fatal(err)
			}
			want, err1 := est.Estimate(feats)
			got, err2 := loaded.Estimate(feats)
			if err1 != nil || err2 != nil {
				t.Fatalf("estimate: %v, %v", err1, err2)
			}
			// Exact equality on purpose: the snapshot contract is bit
			// identity, not tolerance.
			if want.CR != got.CR || want.Lo != got.Lo || want.Hi != got.Hi {
				t.Fatalf("step %d eps %g: restored %+v != original %+v", buf.Step, eps, got, want)
			}
			checked++
		}
	}
	if checked != len(field.Buffers)*len(epses) {
		t.Fatalf("covered %d points", checked)
	}
}

// TestSnapshotFromOlderBuild loads a snapshot written by an older build
// and checks that it estimates the CR/Lo/Hi bits that build recorded.
// Its config still carries "CRCap" and the EM settings, fields that
// core.Config has since dropped; JSON decoding ignores them.
//
// testdata/snapshot-7c3feee.crsnap was made on a git archive of commit
// 7c3feee: an estimator trained with crest.TrainEstimator at the default
// EstimatorConfig on the szinterp ratios of hurricane TC buffers 0–11
// (DataOptions{NZ: 16, NY: 32, NX: 32, Seed: 1}) at ε = 1e-2, 1e-3 and
// 1e-4, saved with crest.SaveEstimator. The probes are the feature
// vectors of buffers 12–15 at those bounds, and two copies of the first
// with its distortion set to −40 and +40 to reach both ends of the point
// estimate's clamp to [1, 100]; the bits are that build's estimates.
func TestSnapshotFromOlderBuild(t *testing.T) {
	const path = "testdata/snapshot-7c3feee.crsnap"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"CRCap":100`)) {
		t.Fatalf("%s does not carry the old CRCap field", path)
	}
	est, err := crest.LoadEstimator(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []struct {
		features   []float64
		cr, lo, hi uint64
	}{
		{[]float64{26.763633764916992, 0.4924923065249726, 26.68224872925607, 9.375, -5.612595297062439}, 0x400c6980d423706d, 0x4003b73f3aeb60ed, 0x401478dca8230f04},
		{[]float64{26.763633764916992, 0.4924923065249726, 26.68224872925607, 9.375, -5.821617855673095}, 0x40009d2dec128099, 0x3ff70ec0ca7dedb6, 0x4007f12f88ffd345},
		{[]float64{26.763633764916992, 0.4924923065249726, 26.68224872925607, 9.375, -5.852867855673095}, 0x3ffeaaa110cbe802, 0x3ff547ba44e3a13a, 0x400618b4880779a1},
		{[]float64{26.86747110948823, 0.48877688161440314, 26.687030802791686, 9.375, -5.646132559907533}, 0x400acbd1f0840d40, 0x4002982ed73622d0, 0x40134ec9372b69bd},
		{[]float64{26.86747110948823, 0.48877688161440314, 26.687030802791686, 9.375, -5.864442008170853}, 0x3ffe998faf87003e, 0x3ff53be242247f15, 0x40060c68360f395e},
		{[]float64{26.86747110948823, 0.48877688161440314, 26.687030802791686, 9.375, -5.907410758170853}, 0x3ffb67723bd97d29, 0x3ff3042cea0a554e, 0x4003beebce71b683},
		{[]float64{26.90583561589206, 0.48125229976323697, 26.69864705308611, 9.375, -5.509250034440528}, 0x4013142cc1e64112, 0x400a7a7a1465f2e9, 0x401b7e80af5770a9},
		{[]float64{26.90583561589206, 0.48125229976323697, 26.69864705308611, 9.375, -5.735371982703848}, 0x40055abbcf3fbf50, 0x3ffda2fa64adee47, 0x400ec604b6f0f5d1},
		{[]float64{26.90583561589206, 0.48125229976323697, 26.69864705308611, 9.375, -5.750996982703848}, 0x400483cd2a6c9249, 0x3ffc78af80249a45, 0x400d904880b10553},
		{[]float64{26.91899440895827, 0.4766494268776511, 26.716312976514292, 9.375, -5.442332547204872}, 0x40162d99dbd07de0, 0x400ec7a11a175e74, 0x401ff5e557c2bc76},
		{[]float64{26.91899440895827, 0.4766494268776511, 26.716312976514292, 9.375, -5.661599466162864}, 0x4009439ca207523c, 0x4001880558d4e368, 0x4012342f02e95eeb},
		{[]float64{26.91899440895827, 0.4766494268776511, 26.716312976514292, 9.375, -5.688943216162864}, 0x40078d32f29ce528, 0x400057cbe04c5f97, 0x4010f849f7c9cfed},
		{[]float64{26.763633764916992, 0.4924923065249726, 26.68224872925607, 9.375, -40}, 0x3ff0000000000000, 0x380ee1206462ae44, 0x3820082f82f79a0d},
		{[]float64{26.763633764916992, 0.4924923065249726, 26.68224872925607, 9.375, 40}, 0x4059000000000000, 0x4a92b719aaaba874, 0x4aa36ee3a882ebce},
	} {
		e, err := est.Estimate(p.features)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if got := [3]uint64{math.Float64bits(e.CR), math.Float64bits(e.Lo), math.Float64bits(e.Hi)}; got != [3]uint64{p.cr, p.lo, p.hi} {
			t.Errorf("probe %d: estimate %+v has bits %#x, want %#x", i, e, got, [3]uint64{p.cr, p.lo, p.hi})
		}
	}
}
