package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randRows returns n separately allocated rows of length k. It mixes
// magnitudes so a reordered or fused summation changes low-order bits
// and is caught.
func randRows[F Float](n, k int, seed int64) [][]F {
	rng := rand.New(rand.NewSource(seed))
	v := make([][]F, n)
	for i := range v {
		v[i] = make([]F, k)
		for x := range v[i] {
			v[i][x] = F(rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(20))))
		}
	}
	return v
}

// carved copies rows into one backing array at a constant stride, the
// layout that lets GramBlockT run the SIMD kernels; randRows' separately
// allocated rows take the portable kernel. It also returns the panel
// transpose.
func carved[F Float](v [][]F) ([][]F, []F) {
	n, k := len(v), len(v[0])
	backing := make([]F, n*k)
	out := make([][]F, n)
	for i := range v {
		out[i] = backing[i*k : (i+1)*k]
		copy(out[i], v[i])
	}
	vt := make([]F, n*k)
	TransposeInto(out, vt)
	return out, vt
}

// gramLayouts returns the row set both ways GramBlockT takes it: as
// randRows' separately allocated rows (the portable kernel) and carved
// at one stride (the SIMD kernels where the CPU has them), with the
// transpose both share.
func gramLayouts[F Float](n, k int, seed int64) (layouts [2][][]F, vt []F) {
	scattered := randRows[F](n, k, seed)
	strided, vt := carved(scattered)
	return [2][][]F{scattered, strided}, vt
}

// gramSentinel fills an output before a fill: a NaN, so an element a
// kernel fails to store cannot pass for a computed one.
var gramSentinel = math.NaN()

// gramWindow is one GramBlockT call: rows [lo, hi) against columns
// [jlo, jhi), written at row stride stride.
type gramWindow struct{ lo, hi, jlo, jhi, stride int }

// checkGram runs GramBlockT for w into hi−lo output rows filled with
// gramSentinel, and fails unless every out[(i−lo)·stride + j] in the
// window holds the naive per-pair loop's ⟨v[i], v[j]⟩ and every other
// element keeps the sentinel. At float64 the element must match bit for
// bit. At float32 it must lie within k·ε·Σ|a·b| of it, which covers the
// worst-case rounding split between the FMA and the mul-add chain.
func checkGram[F Float](t *testing.T, what string, v [][]F, vt []F, w gramWindow) {
	t.Helper()
	out := make([]F, (w.hi-w.lo)*w.stride)
	for i := range out {
		out[i] = F(gramSentinel)
	}
	GramBlockT(v, vt, w.lo, w.hi, w.jlo, w.jhi, out, w.stride)
	f64 := panelWidth[F]() == 8
	for i := w.lo; i < w.hi; i++ {
		for j := 0; j < w.stride; j++ {
			g := out[(i-w.lo)*w.stride+j]
			if j < w.jlo || j >= w.jhi {
				if g == g {
					t.Fatalf("%s %+v: G[%d,%d] = %v written outside the window", what, w, i, j, g)
				}
				continue
			}
			var want, mag F
			for x := range v[i] {
				want += v[i][x] * v[j][x]
				mag += F(math.Abs(float64(v[i][x] * v[j][x])))
			}
			if f64 {
				if g != want {
					t.Fatalf("%s %+v: G[%d,%d] = %x, naive = %x", what, w, i, j, g, want)
				}
				continue
			}
			bound := float64(len(v[i])) * 1.2e-7 * float64(mag)
			if d := math.Abs(float64(g) - float64(want)); !(d <= bound) {
				t.Fatalf("%s %+v: G[%d,%d]: |%v - %v| = %g exceeds %g", what, w, i, j, g, want, d, bound)
			}
		}
	}
}

// TestGramMatchesNaiveBitIdentical: on both row layouts and every
// kernel set the CPU has, the lower triangle filled in 4-row panels (with
// a ragged last panel) must be bit-identical to the naive per-pair loop
// across shapes whose row count and length are not multiples of the
// register block or the lane width.
func TestGramMatchesNaiveBitIdentical(t *testing.T) {
	runKernelSets(t, func(t *testing.T) {
		for _, tc := range []struct {
			n, k int
		}{
			{1, 1}, {2, 3}, {3, 4}, {4, 4}, {5, 7}, {7, 16},
			{8, 64}, {9, 64}, {16, 64}, {17, 5}, {33, 9}, {64, 64}, {65, 3},
		} {
			n := tc.n
			layouts, vt := gramLayouts[float64](n, tc.k, int64(1000*n+tc.k))
			for l, v := range layouts {
				for lo := 0; lo < n; lo += 4 {
					hi := min(lo+4, n)
					checkGram(t, fmt.Sprintf("layout %d n=%d k=%d", l, n, tc.k), v, vt, gramWindow{lo, hi, 0, hi, n})
				}
			}
		}
	})
}

// TestGramPanelMatchesNaive: arbitrary row panels [lo, hi) and column
// windows [jlo, jhi), including heights that straddle the register
// blocks raggedly and empty ones, must reproduce the naive entries bit
// for bit on both row layouts and every kernel set the CPU has.
func TestGramPanelMatchesNaive(t *testing.T) {
	const n, k = 23, 11
	runKernelSets(t, func(t *testing.T) {
		layouts, vt := gramLayouts[float64](n, k, 42)
		for l, v := range layouts {
			for _, w := range []gramWindow{
				{0, n, 0, n, n}, {0, 1, 0, n, n}, {0, 4, 0, n, n}, {0, 5, 7, n, n}, {3, 10, 0, 19, n},
				{19, 23, 2, 23, n}, {22, 23, 22, 23, n}, {5, 5, 0, n, n}, {3, 10, 4, 4, n},
			} {
				checkGram(t, fmt.Sprintf("layout %d", l), v, vt, w)
			}
		}
	})
}

// TestGramSymmetryBitIdentical: a whole fill must be bitwise symmetric,
// G[i][j] == G[j][i], on both row layouts and every kernel set the CPU
// has — the property that lets the pairwise pass fill and read only the
// lower triangle.
func TestGramSymmetryBitIdentical(t *testing.T) {
	const n = 31
	runKernelSets(t, func(t *testing.T) {
		layouts, vt := gramLayouts[float64](n, 13, 7)
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
	})
}

// gramTailWindows lists the windows the kernel-tail tests take on n
// rows: every row count from 1 to 17 (several 4-row register blocks
// and every row tail), each against the whole width, against the lower
// triangle up to its diagonal (the predictors' panels), and against a
// window whose head and end are not panel aligned, at row stride n and
// at a wider stride.
func gramTailWindows(n int) []gramWindow {
	var ws []gramWindow
	for rows := 1; rows <= min(17, n); rows++ {
		lo := (rows * 5) % (n - rows + 1)
		hi := lo + rows
		ws = append(ws,
			gramWindow{lo, hi, 0, n, n},
			gramWindow{lo, hi, 0, hi, n},
			gramWindow{lo, hi, min(3, n), max(n-2, min(3, n)), n + rows%3})
	}
	return ws
}

// checkGramTails runs checkGram over gramTailWindows(n) for each n at
// k ∈ {1, 3, 64}, on both row layouts; separately allocated rows take
// the scalar fallback.
func checkGramTails[F Float](t *testing.T, ns []int) {
	for _, n := range ns {
		for _, k := range []int{1, 3, 64} {
			layouts, vt := gramLayouts[F](n, k, int64(100*n+k))
			for l, v := range layouts {
				for _, w := range gramTailWindows(n) {
					checkGram(t, fmt.Sprintf("layout %d n=%d k=%d", l, n, k), v, vt, w)
				}
			}
		}
	}
}

// TestGramBlockTBitIdenticalF64 pins the float64 contract on every
// kernel set the CPU has (AVX2 and scalar): the panel kernel vectorizes
// across output elements only, so every element must equal the naive
// per-pair loop bit for bit — for B mod 8 = 0…7 (the partial last
// panel), unaligned column windows, row counts 1–17, k ∈ {1, 3, 64},
// and separately allocated rows — and also on windows narrower than a
// panel and a production-like k² = 64 block.
func TestGramBlockTBitIdenticalF64(t *testing.T) {
	runKernelSets(t, func(t *testing.T) {
		checkGramTails[float64](t, []int{40, 41, 42, 43, 44, 45, 46, 47})
		for _, c := range []struct {
			n, k int
			w    gramWindow
		}{
			{16, 8, gramWindow{0, 16, 0, 16, 16}}, {33, 7, gramWindow{0, 16, 0, 33, 33}},
			{33, 7, gramWindow{16, 33, 5, 29, 33}}, {8, 1, gramWindow{0, 8, 0, 8, 8}},
			{5, 12, gramWindow{0, 5, 2, 5, 5}}, {64, 64, gramWindow{12, 40, 0, 64, 64}},
		} {
			layouts, vt := gramLayouts[float64](c.n, c.k, int64(c.n*c.k))
			checkGram(t, "carved", layouts[1], vt, c.w)
		}
	})
}

// TestGramBlockTF32ULP bounds the float32 FMA kernel against the scalar
// float32 loop on every kernel set the CPU has: FMA rounds once per
// step instead of twice, so elements may differ, but only within a few
// ULP of the k-term dot product. Shapes cover B mod 16 ∈ {0, 7, 8, 15},
// unaligned windows, row counts 1–17, k ∈ {1, 3, 64} and separately
// allocated rows.
func TestGramBlockTF32ULP(t *testing.T) {
	runKernelSets(t, func(t *testing.T) {
		checkGramTails[float32](t, []int{48, 55, 56, 63})
		for _, c := range []struct{ n, k int }{{16, 8}, {40, 64}, {33, 7}} {
			layouts, vt := gramLayouts[float32](c.n, c.k, int64(c.n*c.k))
			checkGram(t, "carved", layouts[1], vt, gramWindow{0, c.n, 0, c.n, c.n})
		}
	})
}

// FuzzGramBlockT runs checkGram on every kernel set the CPU has over
// arbitrary shapes, windows, strides, element types and row layouts.
func FuzzGramBlockT(f *testing.F) {
	f.Add(int64(1), uint8(47), uint8(64), uint8(3), uint8(17), uint8(5), uint8(45), uint8(0), false, false)
	f.Add(int64(2), uint8(63), uint8(3), uint8(40), uint8(9), uint8(16), uint8(63), uint8(2), true, false)
	f.Add(int64(3), uint8(8), uint8(1), uint8(0), uint8(8), uint8(0), uint8(8), uint8(1), false, true)
	f.Add(int64(4), uint8(200), uint8(9), uint8(100), uint8(16), uint8(0), uint8(116), uint8(0), true, false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, loRaw, rowsRaw, jloRaw, jhiRaw, padRaw uint8, f32, scattered bool) {
		n := 1 + int(nRaw)
		k := 1 + int(kRaw)%80
		lo := int(loRaw) % n
		hi := lo + 1 + int(rowsRaw)%min(24, n-lo)
		jlo := int(jloRaw) % n
		jhi := jlo + 1 + int(jhiRaw)%(n-jlo)
		w := gramWindow{lo, hi, jlo, jhi, n + int(padRaw)%3}
		layout := 1
		if scattered {
			layout = 0
		}
		for _, ks := range kernelSets {
			if ks.avx2 && !haveAVX2FMA {
				continue
			}
			func() {
				defer setAVX2(ks.avx2)()
				if f32 {
					layouts, vt := gramLayouts[float32](n, k, seed)
					checkGram(t, ks.name, layouts[layout], vt, w)
				} else {
					layouts, vt := gramLayouts[float64](n, k, seed)
					checkGram(t, ks.name, layouts[layout], vt, w)
				}
			}()
		}
	})
}

func TestGramPanelShapePanics(t *testing.T) {
	v, vt := carved(randRows[float64](6, 4, 3))
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
	ragged := randRows[float64](6, 4, 3)
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
		v := randRows[float64](tc.n, tc.k, int64(77*tc.n+tc.k))
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
