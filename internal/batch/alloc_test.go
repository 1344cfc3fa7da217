package batch

import (
	"testing"

	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/testutil"
)

// TestBatchSteadyStateZeroAlloc pins the zero-steady-state-allocation
// contract of the saturated batch path: once the feature cache is warm,
// the pooled per-request feature stage — cache lookup plus vector
// assembly into a recycled buffer — performs no
// allocation at all. This is the stage EstimateAllContext runs per
// request; the model stage and the per-batch result slices are the only
// remaining allocation sites, and both are O(batch), not O(request).
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	buf := testBuffer(64, 64, 1)
	const eps = 1e-3
	cfg := predictors.Config{Workers: 1}
	cache := featcache.New(cfg)

	feats, err := cache.FeaturesInto(make([]float64, 0, 8), buf, eps)
	if err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		var err error
		feats, err = cache.FeaturesInto(feats[:0], buf, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(feats) != 5 {
			t.Fatalf("feature vector length %d", len(feats))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-cache feature stage: %.1f allocs/op, want 0", allocs)
	}
}

// TestFeaturesIntoMatchesFeatures pins that the zero-alloc variant
// returns the exact bits of the allocating one.
func TestFeaturesIntoMatchesFeatures(t *testing.T) {
	buf := testBuffer(48, 56, 2)
	cache := featcache.New(serialCfg)
	const eps = 1e-2

	want, err := cache.Features(buf, eps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cache.FeaturesInto(nil, buf, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("f64 feature %d: %g vs %g", i, got[i], want[i])
		}
	}

}
