package baselines

import (
	"errors"
	"math"
	"testing"

	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/stats"
	"github.com/crestlab/crest/internal/synthdata"
)

func trainingData(t *testing.T, field string, comp compressors.Compressor, eps float64) ([]*grid.Buffer, []float64, []*grid.Buffer, []float64) {
	t.Helper()
	ds := synthdata.Hurricane(synthdata.Options{NZ: 16, NY: 48, NX: 48, Seed: 99})
	bufs := ds.Field(field).Buffers
	crs := make([]float64, len(bufs))
	for i, b := range bufs {
		cr, err := compressors.Ratio(comp, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		crs[i] = math.Min(cr, 100)
	}
	n := len(bufs) * 3 / 4
	return bufs[:n], crs[:n], bufs[n:], crs[n:]
}

func medapeOf(t *testing.T, m Method, test []*grid.Buffer, truth []float64, eps float64) float64 {
	t.Helper()
	preds := make([]float64, len(test))
	for i, b := range test {
		p, err := m.Predict(b, eps)
		if err != nil {
			t.Fatalf("%s predict: %v", m.Name(), err)
		}
		preds[i] = p
	}
	return stats.MedAPE(truth, preds)
}

func TestMethodNames(t *testing.T) {
	if NewProposed(core.Config{}).Name() != "proposed" ||
		NewUnderwood().Name() != "underwood" ||
		NewTao().Name() != "tao" ||
		NewLu().Name() != "lu" {
		t.Error("method names wrong")
	}
}

func TestUntrainedErrors(t *testing.T) {
	buf := grid.NewBuffer(16, 16)
	if _, err := NewProposed(core.Config{}).Predict(buf, 1e-3); !errors.Is(err, ErrUntrained) {
		t.Errorf("proposed untrained error = %v", err)
	}
	if _, err := NewProposed(core.Config{}).Interval(buf, 1e-3); !errors.Is(err, ErrUntrained) {
		t.Errorf("proposed untrained interval error = %v", err)
	}
	if _, err := NewUnderwood().Predict(buf, 1e-3); !errors.Is(err, ErrUntrained) {
		t.Errorf("underwood untrained error = %v", err)
	}
}

func TestTrainingFreeMethodsPredictWithoutFit(t *testing.T) {
	ds := synthdata.Hurricane(synthdata.Options{NZ: 2, NY: 32, NX: 32, Seed: 1})
	buf := ds.Field("TC").Buffers[0]
	for _, m := range []Method{NewTao(), NewLu()} {
		cr, err := m.Predict(buf, 1e-3)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if cr <= 0 || math.IsNaN(cr) {
			t.Errorf("%s predicted %g", m.Name(), cr)
		}
		if err := m.Fit(nil, nil, 1e-3); err != nil {
			t.Errorf("%s no-op fit errored: %v", m.Name(), err)
		}
	}
}

func TestAccuracyOrderingInSample(t *testing.T) {
	comp := compressors.MustNew("szinterp")
	eps := 1e-3
	train, trainCR, test, testCR := trainingData(t, "TC", comp, eps)

	prop := NewProposed(core.Config{})
	if err := prop.Fit(train, trainCR, eps); err != nil {
		t.Fatal(err)
	}
	under := NewUnderwood()
	if err := under.Fit(train, trainCR, eps); err != nil {
		t.Fatal(err)
	}
	tao := NewTao()
	lu := NewLu()

	mProp := medapeOf(t, prop, test, testCR, eps)
	mUnder := medapeOf(t, under, test, testCR, eps)
	mTao := medapeOf(t, tao, test, testCR, eps)
	mLu := medapeOf(t, lu, test, testCR, eps)
	t.Logf("MedAPE: proposed=%.2f underwood=%.2f tao=%.2f lu=%.2f", mProp, mUnder, mTao, mLu)

	if mProp > 10 {
		t.Errorf("proposed MedAPE %.2f too high in-sample", mProp)
	}
	if mProp > mTao || mProp > mLu {
		t.Error("proposed not better than the fast baselines")
	}
	if mUnder > mTao {
		t.Error("underwood not better than tao in-sample")
	}
}

func TestProposedIntervalContainsPoint(t *testing.T) {
	comp := compressors.MustNew("szinterp")
	eps := 1e-3
	train, trainCR, test, _ := trainingData(t, "CLOUD", comp, eps)
	prop := NewProposed(core.Config{})
	if err := prop.Fit(train, trainCR, eps); err != nil {
		t.Fatal(err)
	}
	for _, b := range test {
		est, err := prop.Interval(b, eps)
		if err != nil {
			t.Fatal(err)
		}
		if est.Lo > est.CR*1.0000001 || est.Hi < est.CR*0.9999999 {
			// The point is clamped to [1, cap]; the raw interval might not
			// contain a clamped point only in extreme extrapolation.
			t.Logf("interval [%g,%g] vs point %g (clamped)", est.Lo, est.Hi, est.CR)
		}
		if est.Lo > est.Hi {
			t.Errorf("inverted interval [%g, %g]", est.Lo, est.Hi)
		}
	}
	if prop.Estimator() == nil {
		t.Error("Estimator() nil after fit")
	}
}

func TestFitMultiMakesModelRateAware(t *testing.T) {
	comp := compressors.MustNew("szinterp")
	ds := synthdata.Hurricane(synthdata.Options{NZ: 12, NY: 48, NX: 48, Seed: 5})
	bufs := ds.Field("W").Buffers
	epses := []float64{1e-2, 1e-3, 1e-4}
	crs := make([][]float64, len(bufs))
	for i, b := range bufs {
		crs[i] = make([]float64, len(epses))
		for j, e := range epses {
			cr, err := compressors.Ratio(comp, b, e)
			if err != nil {
				t.Fatal(err)
			}
			crs[i][j] = math.Min(cr, 100)
		}
	}
	m := NewProposed(core.Config{})
	if err := m.FitMulti(bufs[:9], crs[:9], epses); err != nil {
		t.Fatal(err)
	}
	// Prediction at an unseen intermediate bound must land between the
	// neighboring bounds' predictions (monotone in eps).
	b := bufs[10]
	loose, err := m.Predict(b, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := m.Predict(b, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if loose <= tight {
		t.Errorf("CR at loose bound %.2f not above tight bound %.2f", loose, tight)
	}
	// Mismatched shape errors.
	if err := m.FitMulti(bufs[:2], crs[:1], epses); err == nil {
		t.Error("ragged FitMulti accepted")
	}
}

func TestSharedFeatureCache(t *testing.T) {
	comp := compressors.MustNew("szinterp")
	eps := 1e-3
	train, trainCR, test, _ := trainingData(t, "QSNOW", comp, eps)
	shared := featcache.New(predictors.Config{})
	a := NewProposedShared(core.Config{}, shared)
	b := NewProposedShared(core.Config{}, shared)
	if err := a.Fit(train, trainCR, eps); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(train, trainCR, eps); err != nil {
		t.Fatal(err)
	}
	pa, err := a.Predict(test[0], eps)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Predict(test[0], eps)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Errorf("same training, shared cache, different predictions: %g vs %g", pa, pb)
	}
}

func TestLuSupportsCompressor(t *testing.T) {
	lu := NewLu()
	if !lu.SupportsCompressor("szlorenzo") || !lu.SupportsCompressor("zfplike") {
		t.Error("Lu must support the SZ2/ZFP families")
	}
	if lu.SupportsCompressor("szinterp") || lu.SupportsCompressor("sperrlike") {
		t.Error("Lu must not claim non-SZ2/ZFP compressors")
	}
}

func TestLuTracksSZLorenzoCR(t *testing.T) {
	// Lu's white-box estimate should be in the right ballpark for the
	// compressor whose internals it models.
	comp := compressors.MustNew("szlorenzo")
	ds := synthdata.Hurricane(synthdata.Options{NZ: 4, NY: 48, NX: 48, Seed: 31})
	lu := NewLu()
	for _, b := range ds.Field("TC").Buffers {
		truth, err := compressors.Ratio(comp, b, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		est, err := lu.Predict(b, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if est < truth/3 || est > truth*3 {
			t.Errorf("Lu estimate %.2f vs true %.2f (off by >3x)", est, truth)
		}
	}
}

func TestFitLengthMismatch(t *testing.T) {
	ds := synthdata.Hurricane(synthdata.Options{NZ: 2, NY: 32, NX: 32, Seed: 1})
	bufs := ds.Field("TC").Buffers
	if err := NewProposed(core.Config{}).Fit(bufs, []float64{1}, 1e-3); err == nil {
		t.Error("length mismatch accepted")
	}
}
