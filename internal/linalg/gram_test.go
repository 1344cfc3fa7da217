package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveGram is the reference per-pair scalar loop: one forward-order dot
// product per (i, j). The tiled kernels must match it bit for bit.
func naiveGram(v [][]float64) *Matrix {
	n := len(v)
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var d float64
			for x := range v[i] {
				d += v[i][x] * v[j][x]
			}
			m.Set(i, j, d)
		}
	}
	return m
}

func randRows(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, k)
		for x := range v[i] {
			// Mix magnitudes so reordered summation would actually
			// change low-order bits and be caught.
			v[i][x] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(20)))
		}
	}
	return v
}

// carved copies rows into one backing array at a constant stride, the
// layout that lets GramBlockT run the SIMD kernel; randRows' separately
// allocated rows take the portable kernel.
func carved(v [][]float64) ([][]float64, []float64) {
	n, k := len(v), len(v[0])
	backing := make([]float64, n*k)
	out := make([][]float64, n)
	for i := range v {
		out[i] = backing[i*k : (i+1)*k]
		copy(out[i], v[i])
	}
	vt := make([]float64, n*k)
	TransposeInto(out, vt)
	return out, vt
}

// gramLayouts returns the row set both ways GramBlockT takes it: as
// randRows' separately allocated rows (the portable kernel) and carved
// at one stride (the SIMD kernel where the CPU has it), with the
// transpose both share.
func gramLayouts(n, k int, seed int64) (layouts [2][][]float64, vt []float64) {
	scattered := randRows(n, k, seed)
	strided, vt := carved(scattered)
	return [2][][]float64{scattered, strided}, vt
}

// checkGramWindow fails unless out[(i−lo)·stride + j] holds the naive
// ⟨v[i], v[j]⟩ bit for bit over rows [lo, hi) and columns [jlo, jhi).
func checkGramWindow(t *testing.T, what string, want *Matrix, lo, hi, jlo, jhi int, out []float64, stride int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		for j := jlo; j < jhi; j++ {
			if got := out[(i-lo)*stride+j]; got != want.At(i, j) {
				t.Fatalf("%s: G[%d,%d] = %x, naive = %x", what, i, j, got, want.At(i, j))
			}
		}
	}
}

// TestGramMatchesNaiveBitIdentical: on both row layouts, the lower
// triangle filled in 4-row panels (the predictors' fill, with a ragged
// last panel) must be bit-identical to the naive per-pair loop across
// shapes whose row count and length are not multiples of the register
// block or the lane width.
func TestGramMatchesNaiveBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		n, k int
	}{
		{1, 1}, {2, 3}, {3, 4}, {4, 4}, {5, 7}, {7, 16},
		{8, 64}, {9, 64}, {16, 64}, {17, 5}, {33, 9}, {64, 64}, {65, 3},
	} {
		n := tc.n
		layouts, vt := gramLayouts(n, tc.k, int64(1000*n+tc.k))
		want := naiveGram(layouts[0])
		for l, v := range layouts {
			out := make([]float64, n*n)
			for lo := 0; lo < n; lo += 4 {
				hi := min(lo+4, n)
				GramBlockT(v, vt, lo, hi, 0, hi, out[lo*n:], n)
			}
			for i := 0; i < n; i++ {
				checkGramWindow(t, fmt.Sprintf("layout %d n=%d k=%d row %d", l, n, tc.k, i), want, i, i+1, 0, i+1, out[i*n:], n)
			}
		}
	}
}

// TestGramPanelMatchesNaive: arbitrary row panels [lo, hi) and column
// windows [jlo, jhi), including heights that straddle the 4-row
// register block raggedly and empty ones, must reproduce the naive
// entries bit for bit on both row layouts.
func TestGramPanelMatchesNaive(t *testing.T) {
	const n, k = 23, 11
	layouts, vt := gramLayouts(n, k, 42)
	want := naiveGram(layouts[0])
	for l, v := range layouts {
		for _, p := range []struct{ lo, hi, jlo, jhi int }{
			{0, n, 0, n}, {0, 1, 0, n}, {0, 4, 0, n}, {0, 5, 7, n}, {3, 10, 0, 19},
			{19, 23, 2, 23}, {22, 23, 22, 23}, {5, 5, 0, n}, {3, 10, 4, 4},
		} {
			out := make([]float64, max(p.hi-p.lo, 1)*n)
			GramBlockT(v, vt, p.lo, p.hi, p.jlo, p.jhi, out, n)
			checkGramWindow(t, fmt.Sprintf("layout %d panel %+v", l, p), want, p.lo, p.hi, p.jlo, p.jhi, out, n)
		}
	}
}

// TestGramSymmetryBitIdentical: a whole fill must be bitwise symmetric,
// G[i][j] == G[j][i], on both row layouts — the property that lets the
// pairwise pass fill and read only the lower triangle.
func TestGramSymmetryBitIdentical(t *testing.T) {
	const n = 31
	layouts, vt := gramLayouts(n, 13, 7)
	for l, v := range layouts {
		g := make([]float64, n*n)
		GramBlockT(v, vt, 0, n, 0, n, g, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if g[i*n+j] != g[j*n+i] {
					t.Fatalf("layout %d: G[%d,%d] != G[%d,%d]", l, i, j, j, i)
				}
			}
		}
	}
}

func TestGramPanelShapePanics(t *testing.T) {
	v, vt := carved(randRows(6, 4, 3))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short output", func() {
		GramBlockT(v, vt, 0, 6, 0, 6, make([]float64, 6*6-1), 6)
	})
	mustPanic("bad bounds", func() {
		GramBlockT(v, vt, 0, 7, 0, 6, make([]float64, 7*6), 6)
	})
	mustPanic("short transpose", func() {
		GramBlockT(v, vt[:6*4-1], 0, 6, 0, 6, make([]float64, 6*6), 6)
	})
	ragged := randRows(6, 4, 3)
	ragged[3] = ragged[3][:3]
	mustPanic("unequal rows", func() {
		GramBlockT(ragged, vt, 0, 6, 0, 6, make([]float64, 6*6), 6)
	})
}

// TestSecondMomentLowerMatchesSerialOuter: the deterministic second-
// moment accumulation must be bit-identical to the serial outer-product
// loop the old mutex-guarded accumulator ran under workers=1.
func TestSecondMomentLowerMatchesSerialOuter(t *testing.T) {
	for _, tc := range []struct {
		n, k int
	}{{1, 1}, {5, 4}, {40, 9}, {64, 16}} {
		v := randRows(tc.n, tc.k, int64(77*tc.n+tc.k))
		scale := 1 / float64(tc.n)
		want := make([]float64, tc.k*(tc.k+1)/2)
		for _, vi := range v {
			idx := 0
			for p := 0; p < tc.k; p++ {
				xp := vi[p] * scale
				for q := 0; q <= p; q++ {
					want[idx] += xp * vi[q]
					idx++
				}
			}
		}
		got := make([]float64, len(want))
		// Pre-poison to verify the routine overwrites.
		for i := range got {
			got[i] = 1e300
		}
		SecondMomentLower(v, scale, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: lower[%d] = %x, serial = %x", tc.n, tc.k, i, got[i], want[i])
			}
		}
	}
}
