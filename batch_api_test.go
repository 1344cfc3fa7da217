package crest_test

import (
	"math/rand"
	"runtime"
	"testing"

	crest "github.com/crestlab/crest"
)

// serialPredCfg runs the intra-buffer predictor passes on one worker.
// The features have the same bits at every Workers setting (predictors'
// TestReductionDeterminismAcrossWorkers pins that); these tests prove
// that batch-level parallelism (many requests at once) never reorders a
// single request's arithmetic.
var serialPredCfg = crest.PredictorConfig{Workers: 1}

func batchFixture(t *testing.T) (*crest.Estimator, []*crest.Buffer, []float64) {
	t.Helper()
	ds := crest.HurricaneDataset(crest.DataOptions{NZ: 10, NY: 48, NX: 48, Seed: 5})
	field := ds.Field("TC")
	comp := crest.MustCompressor("zfplike")
	epses := []float64{1e-2, 1e-3}
	var samples []crest.Sample
	for _, eps := range epses {
		s, err := crest.CollectSamples(field.Buffers[:6], comp, eps, serialPredCfg)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s...)
	}
	est, err := crest.TrainEstimator(samples, crest.EstimatorConfig{Predictors: serialPredCfg})
	if err != nil {
		t.Fatal(err)
	}
	return est, field.Buffers[6:], epses
}

// TestBatchEstimatorMatchesSerialPath: the concurrent engine must return
// bit-identical estimates to the serial ComputeFeatureVector + Estimate
// path for every worker count, and its cache must record >1 hit per
// buffer shared across bounds — the acceptance gate of the batch engine.
func TestBatchEstimatorMatchesSerialPath(t *testing.T) {
	est, bufs, epses := batchFixture(t)

	var reqs []crest.BatchRequest
	for _, b := range bufs {
		for _, eps := range epses {
			reqs = append(reqs, crest.BatchRequest{Buf: b, Eps: eps})
		}
	}

	want := make([]crest.Estimate, len(reqs))
	for i, r := range reqs {
		feats, err := crest.ComputeFeatureVector(r.Buf, r.Eps, serialPredCfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := est.Estimate(feats)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e
	}

	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		cache := crest.NewFeatureCache(crest.EstimatorConfig{Predictors: serialPredCfg})
		engine := crest.NewBatchEstimator(est, cache, workers)
		got, err := engine.EstimateAll(reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d request %d: batch %+v != serial %+v", workers, i, got[i], want[i])
			}
		}
		st := engine.Stats()
		// Each buffer is requested at len(epses) bounds, so its dataset
		// features must be served from cache at least once (>1 hit per
		// shared buffer once the second batch below runs).
		if st.Cache.DatasetHits < uint64(len(bufs)*(len(epses)-1)) {
			t.Errorf("workers=%d: dataset hits %d, want >= %d", workers, st.Cache.DatasetHits, len(bufs)*(len(epses)-1))
		}
		// Re-running the identical batch doubles hits without recomputing.
		if _, err := engine.EstimateAll(reqs); err != nil {
			t.Fatal(err)
		}
		st2 := engine.Stats()
		if st2.Cache.Misses() != st.Cache.Misses() {
			t.Errorf("workers=%d: repeat batch recomputed features (misses %d -> %d)", workers, st.Cache.Misses(), st2.Cache.Misses())
		}
		perBuffer := float64(st2.Cache.DatasetHits) / float64(len(bufs))
		if perBuffer <= 1 {
			t.Errorf("workers=%d: %.1f dataset cache hits per shared buffer, want > 1", workers, perBuffer)
		}
	}
}

// TestBatchEstimatorOrderInvariance: shuffling the request order must not
// change any individual result.
func TestBatchEstimatorOrderInvariance(t *testing.T) {
	est, bufs, epses := batchFixture(t)
	var reqs []crest.BatchRequest
	for _, b := range bufs {
		for _, eps := range epses {
			reqs = append(reqs, crest.BatchRequest{Buf: b, Eps: eps})
		}
	}
	cache := crest.NewFeatureCache(crest.EstimatorConfig{Predictors: serialPredCfg})
	engine := crest.NewBatchEstimator(est, cache, 4)
	base, err := engine.EstimateAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		perm := rand.New(rand.NewSource(int64(trial))).Perm(len(reqs))
		shuffled := make([]crest.BatchRequest, len(reqs))
		for i, p := range perm {
			shuffled[i] = reqs[p]
		}
		// Fresh cache: order invariance must not depend on warm state.
		eng := crest.NewBatchEstimator(est, crest.NewFeatureCache(crest.EstimatorConfig{Predictors: serialPredCfg}), 4)
		got, err := eng.EstimateAll(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range perm {
			if got[i] != base[p] {
				t.Errorf("trial %d: shuffled request %d (orig %d): %+v != %+v", trial, i, p, got[i], base[p])
			}
		}
	}
}

// TestCollectSamplesWorkersMatchesSerial: the concurrent training-data
// collection path must be bit-identical to the serial one.
func TestCollectSamplesWorkersMatchesSerial(t *testing.T) {
	ds := crest.HurricaneDataset(crest.DataOptions{NZ: 6, NY: 48, NX: 48, Seed: 9})
	bufs := ds.Field("TC").Buffers
	comp := crest.MustCompressor("zfplike")
	serial, err := crest.CollectSamplesWorkers(bufs, comp, 1e-3, serialPredCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := crest.CollectSamplesWorkers(bufs, comp, 1e-3, serialPredCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d vs %d samples", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].CR != parallel[i].CR {
			t.Errorf("sample %d CR: %g != %g", i, serial[i].CR, parallel[i].CR)
		}
		for j := range serial[i].Features {
			if serial[i].Features[j] != parallel[i].Features[j] {
				t.Errorf("sample %d feature %d: %g != %g", i, j, serial[i].Features[j], parallel[i].Features[j])
			}
		}
	}
}
