package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"github.com/crestlab/crest/internal/testutil"
)

// mapEntropy is the reference implementation the pooled bin counter
// replaced: the Shannon entropy in bits of the distribution given by
// counts, summed in sorted count order so the result is independent of
// map iteration order.
func mapEntropy(counts map[int64]int) float64 {
	var n int
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		n += c
		if c > 0 {
			cs = append(cs, c)
		}
	}
	if n == 0 {
		return 0
	}
	sort.Ints(cs)
	var h float64
	fn := float64(n)
	for _, c := range cs {
		p := float64(c) / fn
		h -= p * math.Log2(p)
	}
	return h
}

// mapQuantizedEntropy is the reference form of QuantizedEntropy: one
// fresh map of bin counts per call.
func mapQuantizedEntropy(xs []float64, eps float64) float64 {
	if eps <= 0 || len(xs) == 0 {
		return 0
	}
	counts := make(map[int64]int, 64)
	for _, v := range xs {
		counts[QuantizeBin(v, eps)]++
	}
	return mapEntropy(counts)
}

// checkQuantizedEntropy compares every entry point of the quantized
// entropy against the map reference, bit for bit: the one-segment form,
// a two-segment split at cut, and the float32 segment form over values
// that are exactly representable in float32.
func checkQuantizedEntropy(t *testing.T, xs []float64, eps float64, cut int) {
	t.Helper()
	want := mapQuantizedEntropy(xs, eps)
	if got := QuantizedEntropy(xs, eps); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("QuantizedEntropy(n=%d, eps=%g) = %v, map reference %v", len(xs), eps, got, want)
	}
	if cut < 0 || cut > len(xs) {
		cut = len(xs) / 2
	}
	segs := [][]float64{xs[:cut], xs[cut:]}
	if got := QuantizedEntropySeg(segs, eps); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("QuantizedEntropySeg(cut=%d, eps=%g) = %v, map reference %v", cut, eps, got, want)
	}
	f32 := make([]float32, len(xs))
	w64 := make([]float64, len(xs))
	for i, v := range xs {
		f32[i] = float32(v)
		w64[i] = float64(f32[i])
	}
	want32 := mapQuantizedEntropy(w64, eps)
	if got := QuantizedEntropySeg([][]float32{f32[:cut], f32[cut:]}, eps); math.Float64bits(got) != math.Float64bits(want32) {
		t.Fatalf("float32 QuantizedEntropySeg(eps=%g) = %v, map reference %v", eps, got, want32)
	}
}

// TestQuantizedEntropyMatchesMapReference: the open-addressing counter
// returns the map estimator's bits across smooth and noisy fields, every
// bound from "one bin" to "every value distinct" (the table's growth
// path), saturated bins and NaN values.
func TestQuantizedEntropyMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	smooth := make([]float64, 64*64)
	noisy := make([]float64, 5000)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i)/37) + 0.01*rng.NormFloat64()
	}
	for i := range noisy {
		noisy[i] = 1e3 * rng.NormFloat64()
	}
	special := []float64{math.NaN(), 1e300, -1e300, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 2.5, math.NaN()}
	for _, xs := range [][]float64{smooth, noisy, special, {42}} {
		for _, eps := range []float64{1e-300, 1e-12, 1e-6, 1e-3, 1e-1, 1, 1e6, math.Inf(1)} {
			checkQuantizedEntropy(t, xs, eps, len(xs)/3)
		}
	}
}

// TestEntropyEstimatorsWarmZeroAlloc: once the pool holds a counter, the
// entropy estimators allocate nothing — the quantized entropy's dense
// array, table and count-of-counts and the histogram's cells all come
// from binPool — on the dense path (ε = 1e-3) and the hash path
// (ε = 1e-6) alike.
func TestEntropyEstimatorsWarmZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 128*128)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	QuantizedEntropy(xs, 1e-4) // grow the pooled dense array once
	QuantizedEntropy(xs, 1e-6) // and the pooled table
	HistogramEntropy(xs, 1024)
	if a := testing.AllocsPerRun(20, func() { QuantizedEntropy(xs, 1e-3) }); a != 0 {
		t.Errorf("warm QuantizedEntropy: %.1f allocs/op, want 0", a)
	}
	if _, _, dense := denseBins([][]float64{xs}, 1e-6, len(xs)); dense {
		t.Fatal("ε = 1e-6 takes the dense path; the hash-path case needs a wider span")
	}
	if a := testing.AllocsPerRun(20, func() { QuantizedEntropy(xs, 1e-6) }); a != 0 {
		t.Errorf("warm QuantizedEntropy on the hash path: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { HistogramEntropy(xs, 1024) }); a != 0 {
		t.Errorf("warm HistogramEntropy: %.1f allocs/op, want 0", a)
	}
}

// TestHistogramEntropySegIsOneImplementation: HistogramEntropy is the
// one-segment case, so any split and the float32 form give its bits.
func TestHistogramEntropySegIsOneImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 3000)
	f32 := make([]float32, len(xs))
	for i := range xs {
		f32[i] = float32(rng.NormFloat64())
		xs[i] = float64(f32[i])
	}
	for _, bins := range []int{1, 16, 1024} {
		want := HistogramEntropy(xs, bins)
		if got := HistogramEntropySeg([][]float64{xs[:7], xs[7:1000], nil, xs[1000:]}, bins); got != want {
			t.Errorf("bins=%d: split %v != one segment %v", bins, got, want)
		}
		if got := HistogramEntropySeg([][]float32{f32}, bins); got != want {
			t.Errorf("bins=%d: float32 %v != float64 %v", bins, got, want)
		}
	}
}

// TestCraftedBinsDoNotCluster: bins chosen so that a fixed multiplicative
// hash sends them all to one home slot — k·φ⁻¹ for small k, which all
// land on slot 0 under k ↦ (k·2⁶⁴/φ) >> shift at every table size —
// spread out under the per-process multipliers. Linear probing then
// places each bin close to its home slot instead of at the end of one
// cluster holding every earlier bin.
func TestCraftedBinsDoNotCluster(t *testing.T) {
	const phi = 0x9e3779b97f4a7c15
	phiInv := uint64(phi) // Newton's iteration for the inverse mod 2⁶⁴
	for i := 0; i < 6; i++ {
		phiInv *= 2 - phi*phiInv
	}
	const n = 1 << 14
	b := binPool.Get().(*binCounter)
	defer b.release()
	for j := uint64(0); j < n; j++ {
		k := int64(j * phiInv)
		if (uint64(k)*phi)>>40 != 0 {
			t.Fatalf("bin %d does not share the fixed hash's home slot", k)
		}
		b.add(k)
	}
	mask := uint64(len(b.slots) - 1)
	var probes uint64
	for _, i := range b.occ {
		probes += 1 + (uint64(i)-b.home(b.slots[i].key))&mask
	}
	if mean := float64(probes) / n; mean > 4 {
		t.Fatalf("%d crafted bins: %.1f probes per lookup, want ≤ 4 (a single cluster needs ~%d)", n, mean, n/2)
	}
}

// TestOversizedCounterLeavesPool: a fine bound on a large field grows one
// counter's table past maxPooledSlots; that counter is not pooled, so
// under steady coarse traffic the heap returns to its level before the
// call instead of keeping the grown table alive across collections.
func TestOversizedCounterLeavesPool(t *testing.T) {
	// One P: a pooled object is private to the P that put it, and a
	// goroutine moved to another P by a collection would not find it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(15))
	xs := make([]float64, 512*512)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	traffic := func() uint64 {
		for i := 0; i < 3; i++ {
			runtime.GC() // pooled objects survive one collection only if reused
			QuantizedEntropy(xs, 1)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := traffic()
	QuantizedEntropy(xs, 1e-12) // every value its own bin: 2¹⁹ slots
	growth := int64(traffic()) - int64(before)
	runtime.KeepAlive(xs) // live at both measurements
	t.Logf("heap growth after one fine-bound call on 512×512: %d B", growth)
	if growth > 1<<20 {
		t.Fatalf("heap grew %d B after one fine-bound call: the grown table stays pooled", growth)
	}
}

// TestOversizedDenseCounterLeavesPool is the dense path's twin of
// TestOversizedCounterLeavesPool: a bound at which the bins of a 512²
// field span about 4n, within the dense path's 8n but past
// maxPooledDense, grows one counter's dense array to about 4 MiB; that
// counter is not pooled either.
func TestOversizedDenseCounterLeavesPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 512*512)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	var lo, hi float64
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	fine := (hi - lo) / float64(4*len(xs))
	if _, w, dense := denseBins([][]float64{xs}, fine, len(xs)); !dense || w <= maxPooledDense {
		t.Fatalf("ε = %g: dense %t over %d bins, want the dense path past %d bins", fine, dense, w, maxPooledDense)
	}
	traffic := func() uint64 {
		for i := 0; i < 3; i++ {
			runtime.GC()
			QuantizedEntropy(xs, 1)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := traffic()
	QuantizedEntropy(xs, fine)
	growth := int64(traffic()) - int64(before)
	runtime.KeepAlive(xs)
	t.Logf("heap growth after one dense call over 4n bins on 512×512: %d B", growth)
	if growth > 1<<20 {
		t.Fatalf("heap grew %d B after one dense call over 4n bins: the grown array stays pooled", growth)
	}
}

// TestQuantizedEntropyPathChoice pins which counter each input takes and
// that both give the map reference's bits: bins spanning n and exactly
// 8n are counted densely; 8n+1, a span past 2³² (which a 32-bit int
// would truncate to a small one), bins saturated at ±MaxInt64, and any
// NaN or ±Inf value go to the table.
func TestQuantizedEntropyPathChoice(t *testing.T) {
	const n = 64
	spread := func(span float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(span * float64(i) / (n - 1))
		}
		xs[n-1] = span
		return xs
	}
	withValue := func(v float64) []float64 {
		xs := spread(n)
		xs[n/2] = v
		return xs
	}
	cases := []struct {
		name  string
		xs    []float64
		eps   float64
		dense bool
	}{
		{"span n", spread(n - 1), 1, true},
		{"span 8n", spread(8*n - 1), 1, true},
		{"span 8n+1", spread(8 * n), 1, false},
		{"span 2^32+8", spread(1<<32 + 7), 1, false},
		{"saturated", append(spread(n), 1e300, -1e300), 1e-300, false},
		{"NaN", withValue(math.NaN()), 1, false},
		{"+Inf", withValue(math.Inf(1)), 1, false},
		{"-Inf", withValue(math.Inf(-1)), 1, false},
		{"one value", []float64{42}, 1e-3, true},
		{"eps +Inf", spread(n), math.Inf(1), true},
	}
	for _, c := range cases {
		if _, _, dense := denseBins([][]float64{c.xs}, c.eps, len(c.xs)); dense != c.dense {
			t.Fatalf("%s: dense %t, want %t", c.name, dense, c.dense) // a wrong path may allocate past memory next
		}
		checkQuantizedEntropy(t, c.xs, c.eps, len(c.xs)/3)
	}
}

// BenchmarkQuantizedEntropy times the counter against the map reference
// on a 256×256 field at a mid and a fine bound, and the counter on a
// stream-shaped 256² float32 slice (bins spanning about 1.9n at
// ε = 1e-3, the dense path) and on the same slice at ε = 1e-5 (about
// 190n, the hashed table).
func BenchmarkQuantizedEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	xs := make([]float64, 256*256)
	for i := range xs {
		xs[i] = math.Sin(float64(i)/91) + 0.05*rng.NormFloat64()
	}
	for _, eps := range []float64{1e-3, 1e-6} {
		b.Run("counter/eps="+strconv.FormatFloat(eps, 'g', -1, 64), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				QuantizedEntropy(xs, eps)
			}
		})
		b.Run("map/eps="+strconv.FormatFloat(eps, 'g', -1, 64), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mapQuantizedEntropy(xs, eps)
			}
		})
	}
	slice := [][]float32{streamSlice(rng)}
	for _, c := range []struct {
		name string
		eps  float64
	}{{"stream/f32/eps=1e-3", 1e-3}, {"sparse/f32/eps=1e-5", 1e-5}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				QuantizedEntropySeg(slice, c.eps)
			}
		})
	}
}

// streamSlice returns a smooth 256² float32 field of amplitude 60 with
// noise, whose bins at ε = 1e-3 span about 1.9n like the benchmark's
// stream slices.
func streamSlice(rng *rand.Rand) []float32 {
	xs := make([]float32, 256*256)
	for i := range xs {
		xs[i] = float32(60*math.Sin(float64(i)/91) + 0.5*rng.NormFloat64())
	}
	return xs
}

// BenchmarkQuantizedEntropyPaths times the two counting paths on the
// same 2¹⁶ values, each forced: bins drawn uniformly over spans of n,
// 4n and 8n, the last the widest the dense path takes.
func BenchmarkQuantizedEntropyPaths(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(16))
	for _, per := range []int{1, 4, 8} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(per * n))
		}
		xs[0], xs[1] = 0, float64(per*n-1)
		segs := [][]float64{xs}
		lo, w, dense := denseBins(segs, 1, n)
		if !dense || w != per*n {
			b.Fatalf("span %dn: dense %t over %d bins", per, dense, w)
		}
		for _, path := range []struct {
			name  string
			dense bool
		}{{"dense", true}, {"hash", false}} {
			b.Run(fmt.Sprintf("span=%dn/%s", per, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					quantizedEntropy(segs, 1, n, lo, w, path.dense)
				}
			})
		}
	}
}
