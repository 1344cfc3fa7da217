package baselines

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// TestFeatureCacheConcurrentHammer is the regression test for the data
// race in the original featureCache: a single shared FeatureCache —
// exactly the sharing NewProposedShared advertises for use case B — is
// hammered from many goroutines. On the seed code (unsynchronized maps)
// this fails under -race with a concurrent map write; the sharded
// singleflight cache must survive it with every request returning the
// reference values and each key computed exactly once.
func TestFeatureCacheConcurrentHammer(t *testing.T) {
	cfg := core.Config{Predictors: predictors.Config{Workers: 1}}
	rng := rand.New(rand.NewSource(7))
	var bufs []*grid.Buffer
	for s := 0; s < 3; s++ {
		b := grid.NewBuffer(32, 32)
		for i := range b.Data {
			b.Data[i] = math.Cos(float64(i)/13) + 0.05*rng.NormFloat64()
		}
		b.Dataset, b.Field, b.Step = "hammer", "f", s
		bufs = append(bufs, b)
	}
	epses := []float64{1e-2, 1e-3}

	ref := featcache.New(cfg.Predictors)
	want := make([][][]float64, len(bufs))
	for i, b := range bufs {
		want[i] = make([][]float64, len(epses))
		for j, eps := range epses {
			v, err := ref.Features(b, eps)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = v
		}
	}

	shared := featcache.New(cfg.Predictors)
	const goroutines = 12
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				i := rng.Intn(len(bufs))
				j := rng.Intn(len(epses))
				v, err := shared.Features(bufs[i], epses[j])
				if err != nil {
					t.Error(err)
					return
				}
				for x := range v {
					if v[x] != want[i][j][x] {
						t.Errorf("goroutine %d: buffer %d eps %g feature %d: %g != %g",
							g, i, epses[j], x, v[x], want[i][j][x])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := shared.Stats()
	if st.DatasetMisses != uint64(len(bufs)) {
		t.Errorf("dataset features computed %d times for %d buffers", st.DatasetMisses, len(bufs))
	}
	if st.EBMisses != uint64(len(bufs)*len(epses)) {
		t.Errorf("distortions computed %d times for %d keys", st.EBMisses, len(bufs)*len(epses))
	}
	wantRequests := uint64(goroutines * iters)
	if got := st.Hits() + st.Misses(); got != 2*wantRequests {
		t.Errorf("counter total %d, want %d (two halves per request)", got, 2*wantRequests)
	}
}

// TestProposedSharedCacheConcurrentPredict drives two Proposed instances
// sharing one cache from concurrent goroutines after training — the use
// case B deployment shape — and checks predictions stay deterministic.
func TestProposedSharedCacheConcurrentPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	comp := compressors.MustNew("zfplike")
	trainBufs, trainCRs, testBufs, _ := trainingData(t, "TC", comp, 1e-3)
	cfg := core.Config{Predictors: predictors.Config{Workers: 1}}
	shared := featcache.New(cfg.Predictors)
	pa := NewProposedShared(cfg, shared)
	pb := NewProposedShared(cfg, shared)
	if err := pa.Fit(trainBufs, trainCRs, 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := pb.Fit(trainBufs, trainCRs, 1e-3); err != nil {
		t.Fatal(err)
	}
	wantA := make([]float64, len(testBufs))
	for i, b := range testBufs {
		v, err := pa.Predict(b, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		wantA[i] = v
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := pa
			if g%2 == 1 {
				m = pb
			}
			for i, b := range testBufs {
				v, err := m.Predict(b, 1e-3)
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 && v != wantA[i] {
					t.Errorf("goroutine %d: prediction drifted: %g != %g", g, v, wantA[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
