package eval

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crestlab/crest/internal/baselines"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/synthdata"
)

// oracleMethod predicts the exact (capped) ratio — Algorithm 2 must report
// zero error for it.
type oracleMethod struct {
	comp  compressors.Compressor
	cache *CRCache
}

func (o *oracleMethod) Name() string { return "oracle" }
func (o *oracleMethod) Fit(bufs []*grid.Buffer, crs []float64, eps float64) error {
	return nil
}
func (o *oracleMethod) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	return o.cache.Ratio(o.comp, buf, eps)
}

// biasedMethod predicts a fixed multiple of the truth.
type biasedMethod struct {
	oracleMethod
	factor float64
}

func (b *biasedMethod) Name() string { return "biased" }
func (b *biasedMethod) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	cr, err := b.cache.Ratio(b.comp, buf, eps)
	return cr * b.factor, err
}

func testField(t *testing.T) *grid.Field {
	t.Helper()
	ds := synthdata.Miranda(synthdata.Options{NZ: 12, NY: 40, NX: 40, Seed: 77})
	return ds.Field("density")
}

func TestKFoldOracleIsPerfect(t *testing.T) {
	field := testField(t)
	comp := compressors.MustNew("szinterp")
	cache := NewCRCache()
	m := &oracleMethod{comp: comp, cache: cache}
	q, folds, err := KFold(m, field.Buffers, comp, 1e-3, 4, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 4 {
		t.Fatalf("%d folds", len(folds))
	}
	if q.Q10 != 0 || q.Q50 != 0 || q.Q90 != 0 {
		t.Errorf("oracle quantiles = %+v", q)
	}
}

func TestKFoldBiasedMethodReportsBias(t *testing.T) {
	field := testField(t)
	comp := compressors.MustNew("szinterp")
	cache := NewCRCache()
	m := &biasedMethod{oracleMethod{comp: comp, cache: cache}, 1.25}
	q, _, err := KFold(m, field.Buffers, comp, 1e-3, 4, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	// 25% over-prediction everywhere -> MedAPE exactly 25.
	if math.Abs(q.Q50-25) > 1e-9 {
		t.Errorf("MedAPE = %g, want 25", q.Q50)
	}
}

func TestKFoldDeterministicGivenSeed(t *testing.T) {
	field := testField(t)
	comp := compressors.MustNew("szinterp")
	cache := NewCRCache()
	run := func() Quantiles {
		m := baselines.NewProposed(core.Config{})
		q, _, err := KFold(m, field.Buffers, comp, 1e-3, 4, 9, cache)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("k-fold not deterministic: %+v vs %+v", a, b)
	}
}

func TestKFoldErrors(t *testing.T) {
	field := testField(t)
	comp := compressors.MustNew("szinterp")
	if _, _, err := KFold(&oracleMethod{comp: comp, cache: NewCRCache()}, field.Buffers[:1], comp, 1e-3, 5, 1, nil); err == nil {
		t.Error("single-buffer k-fold accepted")
	}
}

func TestCRCacheAvoidsRecompression(t *testing.T) {
	field := testField(t)
	comp := &countingCompressor{inner: compressors.MustNew("szinterp")}
	cache := NewCRCache()
	buf := field.Buffers[0]
	for i := 0; i < 5; i++ {
		if _, err := cache.Ratio(comp, buf, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	if comp.calls != 1 {
		t.Errorf("compressor called %d times, want 1", comp.calls)
	}
	// Different bound: one more call.
	if _, err := cache.Ratio(comp, buf, 1e-4); err != nil {
		t.Fatal(err)
	}
	if comp.calls != 2 {
		t.Errorf("compressor called %d times, want 2", comp.calls)
	}
}

type countingCompressor struct {
	inner compressors.Compressor
	calls int
}

func (c *countingCompressor) Name() string { return c.inner.Name() }
func (c *countingCompressor) Compress(b *grid.Buffer, eps float64) ([]byte, error) {
	c.calls++
	return c.inner.Compress(b, eps)
}
func (c *countingCompressor) Decompress(data []byte) (*grid.Buffer, error) {
	return c.inner.Decompress(data)
}

func TestCRCacheCapsRatios(t *testing.T) {
	// A constant buffer compresses absurdly well; the cache caps at 100.
	buf := grid.NewBuffer(64, 64)
	cache := NewCRCache()
	cr, err := cache.Ratio(compressors.MustNew("szinterp"), buf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if cr > core.DefaultCRCap {
		t.Errorf("cached CR %g above cap", cr)
	}
}

func TestOutOfSampleProducesIntervalsForProposed(t *testing.T) {
	ds := synthdata.Hurricane(synthdata.Options{NZ: 10, NY: 40, NX: 40, Seed: 21})
	comp := compressors.MustNew("szinterp")
	cache := NewCRCache()
	m := baselines.NewProposed(core.Config{})
	medape, pairs, err := OutOfSample(m, ds.Field("QCLOUD").Buffers, ds.Field("QICE").Buffers, comp, 1e-3, cache)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(medape) {
		t.Error("NaN medape")
	}
	for _, p := range pairs {
		if math.IsNaN(p.Lo) || math.IsNaN(p.Hi) {
			t.Fatal("proposed pairs missing conformal bounds")
		}
		if p.Lo > p.Hi {
			t.Fatalf("inverted interval [%g, %g]", p.Lo, p.Hi)
		}
	}
	// Non-proposed methods get NaN bounds.
	_, pairs2, err := OutOfSample(baselines.NewTao(), ds.Field("QCLOUD").Buffers, ds.Field("QICE").Buffers, comp, 1e-3, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pairs2[0].Lo) {
		t.Error("tao pairs carry bounds")
	}
}

func TestInSamplePairsSplits(t *testing.T) {
	field := testField(t)
	comp := compressors.MustNew("szinterp")
	cache := NewCRCache()
	m := baselines.NewProposed(core.Config{})
	// A random quarter of the field's buffers is the test set.
	perm := rand.New(rand.NewSource(3)).Perm(len(field.Buffers))
	nTest := len(perm) / 4
	medape, pairs, err := OutOfSample(m, pick(field.Buffers, perm[nTest:]), pick(field.Buffers, perm[:nTest]), comp, 1e-3, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 { // 25% of 12
		t.Errorf("%d test pairs", len(pairs))
	}
	if medape > 25 {
		t.Errorf("in-sample MedAPE %.2f implausibly high", medape)
	}
}

func TestAblationRowsComplete(t *testing.T) {
	ds := synthdata.Miranda(synthdata.Options{NZ: 10, NY: 40, NX: 40, Seed: 13})
	comp := compressors.MustNew("szinterp")
	rows, err := Ablation(ds.Fields[:2], comp, 1e-3, core.Config{}, 3, 1, NewCRCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Full) {
			t.Errorf("%s full model NaN", r.Field)
		}
		for i, w := range r.Without {
			if math.IsNaN(w) {
				t.Errorf("%s ablation %d NaN", r.Field, i)
			}
		}
	}
}

func TestQuantilesString(t *testing.T) {
	q := Quantiles{Q10: 1, Q50: 2, Q90: 3}
	if s := q.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestAllCompressorsEstimable is the cross-module integration test: every
// compressor in the registry must be predictable by the proposed method
// with single-digit in-sample MedAPE on a well-behaved field.
func TestAllCompressorsEstimable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	ds := synthdata.Hurricane(synthdata.Options{NZ: 12, NY: 48, NX: 48, Seed: 31})
	field := ds.Field("TC")
	cache := NewCRCache()
	for _, name := range compressors.Names() {
		comp := compressors.MustNew(name)
		m := baselines.NewProposed(core.Config{})
		q, _, err := KFold(m, field.Buffers, comp, 1e-3, 4, 1, cache)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%-12s MedAPE %s", name, q)
		if q.Q50 > 10 {
			t.Errorf("%s: in-sample MedAPE %.2f%% above 10%%", name, q.Q50)
		}
	}
}
