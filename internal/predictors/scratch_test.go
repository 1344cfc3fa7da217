package predictors

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/testutil"
)

// TestScratchShapeChurnHammer hammers the scratch pools with concurrent
// calls of churning shapes and block sizes — the PR 6 arm() bug class:
// a scratch checked out after a differently shaped call must be fully
// re-sliced for the new (B, k²), never trusted. Each goroutine checks
// its results bitwise against a per-shape reference computed before the
// churn, so any stale-geometry reuse (wrong vecs stride, stale moment
// tail, leaked pairwise output) shows up as a bit difference, and the
// race detector sees any cross-checkout sharing. Run under -race in CI.
func TestScratchShapeChurnHammer(t *testing.T) {
	type shape struct {
		rows, cols, k int
	}
	// Deliberately interleaved sizes: growing, shrinking, k-churn, and a
	// ragged shape whose blocking crops both axes.
	shapes := []shape{
		{96, 96, 8},
		{32, 32, 4},
		{90, 101, 8},
		{64, 48, 16},
		{40, 56, 8},
	}
	bufs := make([]*grid.Buffer, len(shapes))
	narrow := make([][]float32, len(shapes))
	refs := make([]DatasetFeatures, len(shapes))
	refs32 := make([]DatasetFeatures, len(shapes))
	for i, sh := range shapes {
		bufs[i] = mixedMagnitudeBuffer(sh.rows, sh.cols, int64(1000+i))
		want, err := ComputeDataset(bufs[i], Config{K: sh.k, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = want
		// The float32 reference is the workers=1 whole-chunk stream.
		raw := encodeStream(t, bufs[i], grid.DTypeF32, sh.rows)
		refs32[i] = streamOnce(t, raw, 1e-3, Config{K: sh.k, Workers: 1}).Dataset
		narrow[i] = make([]float32, len(bufs[i].Data))
		for j, v := range bufs[i].Data {
			narrow[i][j] = float32(v)
		}
	}

	const goroutines = 8
	const iters = 30
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(shapes)
				got, err := ComputeDataset(bufs[i], Config{K: shapes[i].k, Workers: 1 + it%3})
				if err != nil {
					errc <- err
					return
				}
				checkBitIdentical(t, refs[i], got, g, it)
				// Interleave float32 core calls so both pool
				// instantiations churn against each other.
				if it%3 == 0 {
					got32, _, err := featurize(shapes[i].rows, shapes[i].cols, narrow[i], nil,
						Config{K: shapes[i].k, Workers: 1})
					if err != nil {
						errc <- err
						return
					}
					checkBitIdentical(t, refs32[i], got32, g, it)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestComputeDatasetZeroAlloc pins the zero-steady-state-allocation
// contract of the pooled predictor path: once the pools are warm, a
// serial ComputeDataset at the default configuration allocates nothing —
// no closures, no scratch, no result slices. This is the per-request
// feature cost inside a saturated batch worker.
func TestComputeDatasetZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	buf := mixedMagnitudeBuffer(128, 128, 3)
	cfg := Config{K: 8, Workers: 1}
	if _, err := ComputeDataset(buf, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ComputeDataset(buf, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ComputeDataset (workers=1): %.1f allocs/op, want 0", allocs)
	}

	// The float32 core fed from memory holds the same contract.
	narrow := make([]float32, len(buf.Data))
	for i, v := range buf.Data {
		narrow[i] = float32(v)
	}
	if _, _, err := featurize(buf.Rows, buf.Cols, narrow, nil, cfg); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, _, err := featurize(buf.Rows, buf.Cols, narrow, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm float32 core (workers=1): %.1f allocs/op, want 0", allocs)
	}
}

// TestStreamAllocsFlatWithLength pins the O(slice) working-memory claim
// of streaming ingest: ComputeStream drains a stream through one pooled
// featurizer and a reused row buffer, so allocations per slice must not
// grow with the stream length. A rising ratio means per-slice state is
// leaking into per-stream state.
func TestStreamAllocsFlatWithLength(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	const short, long = 2, 16
	cfg := Config{K: 8}
	for _, edge := range []int{64, 128} {
		for _, dt := range []grid.DType{grid.DTypeF64, grid.DTypeF32} {
			bufs := make([]*grid.Buffer, long)
			for i := range bufs {
				bufs[i] = mixedMagnitudeBuffer(edge, edge, int64(100+i))
			}
			perSlice := func(n int) float64 {
				var enc bytes.Buffer
				if err := grid.EncodeBuffers(&enc, bufs[:n], dt, 32); err != nil {
					t.Fatal(err)
				}
				run := func() {
					cr, err := grid.NewChunkReader(bytes.NewReader(enc.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					out, err := ComputeStream(cr, []float64{1e-3}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(out) != n {
						t.Fatalf("featurized %d of %d slices", len(out), n)
					}
				}
				run() // warm the featurizer and kernel scratch pools
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / float64(n)
			}
			a, b := perSlice(short), perSlice(long)
			if growth := b / a; growth > 1.25 {
				t.Errorf("%d² dtype %d: %.1f mallocs/slice at %d slices vs %.1f at %d (growth %.2f > 1.25)",
					edge, dt, b, long, a, short, growth)
			}
		}
	}
}

// TestComputeDataset512AllocBound bounds the working memory of one
// 512×512 float64 call (B = 4096 blocks at k = 8) started from drained
// pools: every scratch buffer is allocated fresh, so the total is the
// call's whole working set. The block matrix and its transpose are
// 2 MiB each and the pairwise pass holds one 128-row block of Gram
// rows, 4 MiB; a pass that materialized the B×B Gram matrix would
// allocate 128 MiB more.
func TestComputeDataset512AllocBound(t *testing.T) {
	const bound = 32 << 20
	buf := mixedMagnitudeBuffer(512, 512, 5)
	for _, workers := range []int{1, 2} {
		// Two collections empty the pools: the first moves their items
		// to the victim cache, the second drops them.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ComputeDataset(buf, Config{K: 8, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Errorf("workers=%d: one 512² ComputeDataset from empty pools allocated %.1f MiB, want < %d MiB",
				workers, float64(got)/(1<<20), bound>>20)
		} else {
			t.Logf("workers=%d: %.1f MiB", workers, float64(got)/(1<<20))
		}
	}
}
