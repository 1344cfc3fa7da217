package featcache

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// TestEqualContentSharesOneEntry: the cache keys on what a buffer holds,
// so a fresh buffer with equal values and shape — the next probe of an ε
// search, the same field re-sent over HTTP — hits, whatever its metadata;
// a changed value or a different shape misses.
func TestEqualContentSharesOneEntry(t *testing.T) {
	c := New(serialCfg)
	a := randomBuffer(t, 32, 48, 1)
	want, err := c.Features(a, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b := &grid.Buffer{Dataset: "other", Field: "g", Step: 9, Rows: 32, Cols: 48,
		Data: append([]float64(nil), a.Data...)}
	got, err := c.Features(b, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %d: %g from the copy, %g from the original", i, got[i], want[i])
		}
	}
	if _, err := c.Distortion(b, 1e-2); err != nil { // a new bound on known content
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DatasetMisses != 1 || st.DatasetHits != 1 || st.EBMisses != 2 || st.EBHits != 1 {
		t.Fatalf("equal content: dataset %d/%d, eb %d/%d hits/misses, want 1/1 and 1/2",
			st.DatasetHits, st.DatasetMisses, st.EBHits, st.EBMisses)
	}

	b.Data[17] = math.Nextafter(b.Data[17], 2)
	if _, err := c.Dataset(b); err != nil {
		t.Fatal(err)
	}
	tr := &grid.Buffer{Rows: 48, Cols: 32, Data: a.Data}
	if _, err := c.Dataset(tr); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DatasetMisses != 3 {
		t.Fatalf("changed element and transposed shape: %d dataset misses, want 3", st.DatasetMisses)
	}
}

// TestUnkeyedBufferBypassesCache: a nil buffer, or one whose data does not
// fill its shape, gets no key; it goes straight to the compute function,
// whose validation returns the typed error, and nothing is retained.
func TestUnkeyedBufferBypassesCache(t *testing.T) {
	c := New(serialCfg)
	short := &grid.Buffer{Rows: 16, Cols: 16, Data: make([]float64, 255)}
	for _, buf := range []*grid.Buffer{nil, short} {
		if _, err := c.Features(buf, 1e-3); !errors.Is(err, crerr.ErrInvalidBuffer) {
			t.Errorf("err = %v, want ErrInvalidBuffer", err)
		}
		if _, err := c.Distortion(buf, 1e-3); !errors.Is(err, crerr.ErrInvalidBuffer) {
			t.Errorf("distortion err = %v, want ErrInvalidBuffer", err)
		}
	}
	st := c.Stats()
	if c.Len() != 0 || st.Bytes != 0 || st.Failures != st.Misses() || st.Misses() != 4 {
		t.Fatalf("len=%d stats=%+v, want 4 uncached failed misses", c.Len(), st)
	}
}

// TestByteBudgetEvictsAndRecomputes: under a lowered budget the charge
// never exceeds it, completed entries are evicted, and an evicted key
// recomputes the identical bits.
func TestByteBudgetEvictsAndRecomputes(t *testing.T) {
	c := New(serialCfg)
	c.maxBytes = NumShards * 3 * entryOverhead // three entries per shard, so 200 must evict
	const n = 100
	first := make([][]float64, n)
	for i := 0; i < n; i++ {
		v, err := c.Features(randomBuffer(t, 16, 16, int64(i)), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = v
		if st := c.Stats(); st.Bytes > c.maxBytes {
			t.Fatalf("after %d buffers: %d bytes charged over a %d budget", i+1, st.Bytes, c.maxBytes)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", c.maxBytes, st)
	}
	if resident := st.Misses() - st.Failures - st.Evictions; resident != uint64(c.Len()) {
		t.Fatalf("Misses − Failures − Evictions = %d, Len = %d", resident, c.Len())
	}

	for i := 0; i < n; i++ {
		got, err := c.Features(randomBuffer(t, 16, 16, int64(i)), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(first[i][j]) {
				t.Fatalf("buffer %d feature %d: %g recomputed, %g first", i, j, got[j], first[i][j])
			}
		}
	}
	if after := c.Stats(); after.DatasetMisses == st.DatasetMisses {
		t.Fatal("no evicted key was recomputed")
	}
	if c.Pending() != 0 {
		t.Fatalf("%d in-flight entries at quiescence", c.Pending())
	}
}

// TestHammerUnderByteBudget drives eviction concurrently with hits,
// singleflight waits and in-flight computations. The stand-in compute
// functions derive every result from the buffer's content, so an entry
// served under the wrong key would show. At quiescence nothing is in
// flight, the charge is back within the budget and is one entryOverhead
// per resident entry, and the residency identity holds.
func TestHammerUnderByteBudget(t *testing.T) {
	sum := func(buf *grid.Buffer) float64 {
		var s float64
		for _, v := range buf.Data {
			s += v
		}
		return s
	}
	c := NewWithCompute(serialCfg,
		func(buf *grid.Buffer, _ predictors.Config) (predictors.DatasetFeatures, error) {
			return predictors.DatasetFeatures{SD: sum(buf)}, nil
		},
		func(buf *grid.Buffer, eps float64, _ predictors.Config) (float64, error) {
			return sum(buf) * eps, nil
		})
	c.maxBytes = NumShards * 2500
	bufs := make([]*grid.Buffer, 64)
	for i := range bufs {
		bufs[i] = randomBuffer(t, 8, 8, int64(i))
	}
	epses := []float64{1e-1, 1e-2, 1e-3}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 300; it++ {
				// Fresh buffers of known content, as the server builds
				// one per request.
				src := bufs[rng.Intn(len(bufs))]
				buf := &grid.Buffer{Rows: src.Rows, Cols: src.Cols, Data: append([]float64(nil), src.Data...)}
				eps := epses[rng.Intn(len(epses))]
				f, err := c.Features(buf, eps)
				if err != nil {
					t.Error(err)
					return
				}
				if want := sum(src); f[0] != want || f[4] != want*eps {
					t.Errorf("goroutine %d: features %v do not belong to their buffer (sum %g, eps %g)", g, f, want, eps)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", c.maxBytes, st)
	}
	if st.Bytes > c.maxBytes {
		t.Fatalf("%d bytes charged at quiescence over a %d budget", st.Bytes, c.maxBytes)
	}
	if want := int64(c.Len()) * entryOverhead; st.Bytes != want {
		t.Fatalf("%d bytes charged for %d entries, want %d", st.Bytes, c.Len(), want)
	}
	if c.Pending() != 0 {
		t.Fatalf("%d in-flight entries at quiescence", c.Pending())
	}
	if resident := st.Misses() - st.Failures - st.Evictions; resident != uint64(c.Len()) {
		t.Fatalf("Misses − Failures − Evictions = %d, Len = %d", resident, c.Len())
	}
}

// TestEntryFitsItsCharge: entryOverhead covers at least the entry
// itself, so a field added to entry cannot silently outgrow the charge.
func TestEntryFitsItsCharge(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size >= entryOverhead {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d B, not below entryOverhead = %d B", size, entryOverhead)
	}
}

// TestHeapFlatAcrossDistinctBuffers is the soak test of a long-running
// server: 500 distinct 64×64 buffers through one cache must not keep
// their data reachable. Post-GC heap growth stays under 10% of the data
// that passed through. The compute functions are stand-ins, so the test
// measures what the cache retains, not the predictors' cost.
func TestHeapFlatAcrossDistinctBuffers(t *testing.T) {
	const n, side = 500, 64
	c := NewWithCompute(serialCfg,
		func(buf *grid.Buffer, _ predictors.Config) (predictors.DatasetFeatures, error) {
			return predictors.DatasetFeatures{SD: buf.Data[0]}, nil
		},
		func(buf *grid.Buffer, eps float64, _ predictors.Config) (float64, error) {
			return buf.Data[1] / eps, nil
		})
	feed := func(seed int64) {
		buf := randomBuffer(t, side, side, seed)
		if _, err := c.Features(buf, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	feed(-1) // size the shard maps before the baseline
	before := heapAfterGC()
	for i := int64(0); i < n; i++ {
		feed(i)
	}
	growth := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(c) // the cache must be live when the heap is measured
	data := int64(n * side * side * 8)
	t.Logf("heap growth %d B over %d B of data (%d B per buffer); charged %d B",
		growth, data, growth/n, c.Stats().Bytes)
	if growth >= data/10 {
		t.Fatalf("heap grew %d B after %d distinct buffers (%d B of data): the cache retains buffers",
			growth, n, data)
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
