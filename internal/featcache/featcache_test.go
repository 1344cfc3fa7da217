package featcache

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
)

// serialCfg keeps the predictor passes single-threaded so feature values
// are bit-deterministic and exact equality checks are valid.
var serialCfg = predictors.Config{Workers: 1}

func randomBuffer(t *testing.T, rows, cols int, seed int64) *grid.Buffer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := grid.NewBuffer(rows, cols)
	for i := range b.Data {
		// Smooth ramp plus noise: realistic enough for every predictor.
		b.Data[i] = math.Sin(float64(i)/17) + 0.1*rng.NormFloat64()
	}
	b.Dataset, b.Field, b.Step = "test", "f", int(seed)
	return b
}

// TestFeaturesMatchDirectCompute: a cache lookup must be bit-identical to
// the uncached predictor path.
func TestFeaturesMatchDirectCompute(t *testing.T) {
	c := New(serialCfg)
	buf := randomBuffer(t, 32, 32, 1)
	eps := 1e-3
	got, err := c.Features(buf, eps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := predictors.Compute(buf, eps, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := f.Vector()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %d: cache %g vs direct %g", i, got[i], want[i])
		}
	}
	// Second lookup must be a pure hit.
	before := c.Stats()
	if _, err := c.Features(buf, eps); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Misses() != before.Misses() {
		t.Errorf("repeat lookup recomputed: misses %d -> %d", before.Misses(), after.Misses())
	}
	if after.Hits() != before.Hits()+2 {
		t.Errorf("repeat lookup hits %d -> %d, want +2 (dataset + distortion)", before.Hits(), after.Hits())
	}
}

// TestHammerSharedCache drives one shared cache from many goroutines —
// the regression test for the unsynchronized map the cache replaces. Run
// under -race it proves map safety; the counters prove singleflight: each
// distinct key is computed exactly once no matter how many goroutines
// race on its first request.
func TestHammerSharedCache(t *testing.T) {
	bufs := []*grid.Buffer{
		randomBuffer(t, 32, 32, 1),
		randomBuffer(t, 32, 32, 2),
		randomBuffer(t, 48, 32, 3),
		randomBuffer(t, 32, 48, 4),
	}
	epses := []float64{1e-2, 1e-3, 1e-4}

	// Reference values from a private serial cache.
	want := make([][][]float64, len(bufs))
	ref := New(serialCfg)
	for bi, b := range bufs {
		for _, eps := range epses {
			v, err := ref.Features(b, eps)
			if err != nil {
				t.Fatal(err)
			}
			want[bi] = append(want[bi], v)
		}
	}

	c := New(serialCfg)
	const goroutines = 16
	const iters = 25
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				bi, ei := rng.Intn(len(bufs)), rng.Intn(len(epses))
				b, eps := bufs[bi], epses[ei]
				v, err := c.Features(b, eps)
				if err != nil {
					errCh <- err
					return
				}
				w := want[bi][ei]
				for i := range w {
					if v[i] != w[i] {
						t.Errorf("goroutine %d: feature %d of %v@%g: %g != %g", g, i, b.Step, eps, v[i], w[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.DatasetMisses > uint64(len(bufs)) {
		t.Errorf("dataset features computed %d times for %d buffers: singleflight broken", st.DatasetMisses, len(bufs))
	}
	if st.EBMisses > uint64(len(bufs)*len(epses)) {
		t.Errorf("distortion computed %d times for %d keys: singleflight broken", st.EBMisses, len(bufs)*len(epses))
	}
	total := st.Hits() + st.Misses()
	if total < goroutines { // every goroutine issued at least one request
		t.Errorf("implausible counter total %d", total)
	}
}

// TestWarmFillsEveryKey: after Warm, every buffer × bound lookup is a hit.
func TestWarmFillsEveryKey(t *testing.T) {
	bufs := []*grid.Buffer{randomBuffer(t, 32, 32, 5), randomBuffer(t, 32, 32, 6)}
	epses := []float64{1e-3, 1e-4}
	c := New(serialCfg)
	if err := c.Warm(bufs, epses, 4); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DatasetMisses != uint64(len(bufs)) || st.EBMisses != uint64(len(bufs)*len(epses)) {
		t.Fatalf("warm misses dset=%d eb=%d, want %d and %d", st.DatasetMisses, st.EBMisses, len(bufs), len(bufs)*len(epses))
	}
	for _, b := range bufs {
		for _, eps := range epses {
			if _, err := c.Features(b, eps); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := c.Stats(); after.Misses() != st.Misses() {
		t.Errorf("post-warm lookups recomputed: misses %d -> %d", st.Misses(), after.Misses())
	}
}

// TestErrorsAreNotRetained: a failing buffer reports a typed error on
// every lookup, but the failure never occupies a cache slot — each lookup
// is a fresh, retryable miss (see retry_test.go for the recovery paths).
func TestErrorsAreNotRetained(t *testing.T) {
	c := New(serialCfg) // default K=8 cannot tile a 4x4 buffer
	tiny := grid.NewBuffer(4, 4)
	if _, err := c.Features(tiny, 1e-3); !errors.Is(err, crerr.ErrInvalidBuffer) {
		t.Fatalf("4x4 buffer at K=8: err = %v, want ErrInvalidBuffer", err)
	}
	before := c.Stats()
	if _, err := c.Features(tiny, 1e-3); err == nil {
		t.Fatal("expected error on second lookup")
	}
	after := c.Stats()
	if after.DatasetMisses != before.DatasetMisses+1 {
		t.Errorf("failed key not retried: dataset misses %d -> %d", before.DatasetMisses, after.DatasetMisses)
	}
	if after.Failures != before.Failures+1 {
		t.Errorf("failures %d -> %d, want +1", before.Failures, after.Failures)
	}
	if c.Len() != 0 {
		t.Errorf("%d entries retained for a buffer that only ever fails", c.Len())
	}
	if c.Pending() != 0 {
		t.Errorf("%d stuck in-flight entries", c.Pending())
	}
}

// TestEBBitsCanonicalization: equal bounds share an entry even across
// distinct bit patterns (±0), and NaN collapses to one key.
// TestDedupWaitsAndRegistryMirror: a hit that lands on a still-in-flight
// computation counts as a singleflight dedup, and every cache counter is
// mirrored onto the observability registry.
func TestDedupWaitsAndRegistryMirror(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	c := NewWithCompute(serialCfg,
		func(buf *grid.Buffer, cfg predictors.Config) (predictors.DatasetFeatures, error) {
			once.Do(func() { close(started) })
			<-gate // hold the singleflight slot open
			return predictors.ComputeDataset(buf, cfg)
		}, nil)
	c.SetObs(reg)
	buf := randomBuffer(t, 16, 16, 7)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Dataset(buf); err != nil {
			t.Error(err)
		}
	}()
	<-started // first requester is inside the compute, slot in flight

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Dataset(buf); err != nil { // must dedup-wait
			t.Error(err)
		}
	}()
	// Release the computation only after the second requester has
	// recorded its dedup wait (the counter increments just before it
	// blocks on the in-flight slot), so the dedup is guaranteed observed.
	for c.Stats().DedupWaits == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	st := c.Stats()
	if st.DatasetMisses != 1 || st.DatasetHits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.DatasetHits, st.DatasetMisses)
	}
	if st.DedupWaits != 1 {
		t.Fatalf("DedupWaits = %d, want 1", st.DedupWaits)
	}
	snap := reg.Snapshot()
	if snap.Counters["featcache_dataset_hits_total"] != 1 ||
		snap.Counters["featcache_dataset_misses_total"] != 1 ||
		snap.Counters["featcache_dedup_waits_total"] != 1 {
		t.Fatalf("registry mirror out of sync: %+v", snap.Counters)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %g, want 0.5", hr)
	}
}

func TestEBBitsCanonicalization(t *testing.T) {
	if EBBits(0.0) != EBBits(math.Copysign(0, -1)) {
		t.Error("+0 and -0 derive different keys")
	}
	n1 := math.NaN()
	n2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // distinct NaN payload
	if !math.IsNaN(n2) {
		t.Fatal("n2 not NaN")
	}
	if EBBits(n1) != EBBits(n2) {
		t.Error("distinct NaN payloads derive different keys")
	}
	if EBBits(1e-3) == EBBits(1e-4) {
		t.Error("distinct bounds collide")
	}
}
