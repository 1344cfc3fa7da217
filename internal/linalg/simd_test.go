package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// carveRows carves n rows of length k from one backing slice at constant
// stride — the layout the predictors' pooled scratch uses, which enables
// the SIMD kernels.
func carveRows[F Float](rng *rand.Rand, n, k int) ([][]F, []F) {
	backing := make([]F, n*k)
	for i := range backing {
		backing[i] = F(rng.NormFloat64())
	}
	rows := make([][]F, n)
	for i := range rows {
		rows[i] = backing[i*k : (i+1)*k]
	}
	return rows, backing
}

// TestGramBlockTBitIdenticalF64 pins the float64 SIMD contract: the
// transposed broadcast kernel vectorizes across output elements only, so
// every element must be bit-identical to the scalar kernel — for
// aligned and ragged block shapes, offset column windows, and strided or
// scattered row layouts (the latter exercising the fallback).
func TestGramBlockTBitIdenticalF64(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct{ n, k, lo, hi, jlo, jhi int }{
		{16, 8, 0, 16, 0, 16},
		{33, 7, 0, 16, 0, 33},   // ragged k, ragged nj
		{33, 7, 16, 33, 5, 29},  // offset windows, ragged ni
		{8, 1, 0, 8, 0, 8},      // k=1
		{5, 12, 0, 5, 2, 5},     // nj < lane width
		{64, 64, 12, 40, 0, 64}, // production-like k²
	}
	for _, sh := range shapes {
		v, _ := carveRows[float64](rng, sh.n, sh.k)
		vt := make([]float64, sh.n*sh.k)
		TransposeInto(v, vt)
		stride := sh.n
		ref := make([]float64, (sh.hi-sh.lo)*stride)
		got := make([]float64, (sh.hi-sh.lo)*stride)
		gramBlockScalar(v, sh.k, sh.lo, sh.hi, sh.jlo, sh.jhi, ref, stride)
		GramBlockT(v, vt, sh.lo, sh.hi, sh.jlo, sh.jhi, got, stride)
		for i := 0; i < sh.hi-sh.lo; i++ {
			for j := sh.jlo; j < sh.jhi; j++ {
				if r, g := ref[i*stride+j], got[i*stride+j]; r != g {
					t.Fatalf("shape %+v: element (%d,%d): scalar %v != simd %v", sh, i+sh.lo, j, r, g)
				}
			}
		}
	}

	// Scattered rows (not one strided backing): must fall back and still
	// be bit-identical.
	n, k := 20, 9
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, k)
		for j := range v[i] {
			v[i][j] = rng.NormFloat64()
		}
	}
	vt := make([]float64, n*k)
	TransposeInto(v, vt)
	ref := make([]float64, n*n)
	got := make([]float64, n*n)
	gramBlockScalar(v, k, 0, n, 0, n, ref, n)
	GramBlockT(v, vt, 0, n, 0, n, got, n)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("scattered rows: element %d: scalar %v != simd %v", i, ref[i], got[i])
		}
	}
}

// TestGramBlockTF32ULP bounds the float32 FMA kernel against the scalar
// float32 loop: FMA rounds once per step instead of twice, so elements
// may differ, but only within a few ULP of the k-term dot product.
func TestGramBlockTF32ULP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range []struct{ n, k int }{{16, 8}, {40, 64}, {33, 7}} {
		v, _ := carveRows[float32](rng, sh.n, sh.k)
		vt := make([]float32, sh.n*sh.k)
		TransposeInto(v, vt)
		ref := make([]float32, sh.n*sh.n)
		got := make([]float32, sh.n*sh.n)
		gramBlockScalar(v, sh.k, 0, sh.n, 0, sh.n, ref, sh.n)
		GramBlockT(v, vt, 0, sh.n, 0, sh.n, got, sh.n)
		for i := range ref {
			// Scale-aware bound: |Δ| ≤ k·ε·Σ|a·b| covers the worst-case
			// rounding split between the two evaluation orders.
			var mag float32
			r, c := i/sh.n, i%sh.n
			for x := 0; x < sh.k; x++ {
				m := v[r][x] * v[c][x]
				if m < 0 {
					m = -m
				}
				mag += m
			}
			bound := float64(sh.k) * 1.2e-7 * float64(mag)
			if d := math.Abs(float64(ref[i]) - float64(got[i])); d > bound {
				t.Fatalf("shape %+v: element %d: |%v - %v| = %g exceeds %g",
					sh, i, ref[i], got[i], d, bound)
			}
		}
	}
}

// TestFusedBlockMomentsBitIdenticalF64 pins the tentpole fusion: the
// single-pass standardize+moments+second-moment traversal must reproduce
// the separate reference passes bit-for-bit at float64.
func TestFusedBlockMomentsBitIdenticalF64(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range []struct{ b, k int }{{12, 16}, {30, 9}, {1, 4}, {7, 1}} {
		v, _ := carveRows[float64](rng, sh.b, sh.k)
		gm, gsd := 0.37, 1.9
		scale := 1 / float64(sh.b)

		// Reference: the unfused sequence the predictors used to run.
		refV := make([][]float64, sh.b)
		for i := range refV {
			refV[i] = append([]float64(nil), v[i]...)
		}
		refMean := make([]float64, sh.b)
		refSd := make([]float64, sh.b)
		refNorm2 := make([]float64, sh.b)
		for i, vec := range refV {
			for j := range vec {
				vec[j] = (vec[j] - gm) / gsd
			}
			var s, s2 float64
			for _, x := range vec {
				s += x
				s2 += x * x
			}
			m := s / float64(sh.k)
			va := s2/float64(sh.k) - m*m
			if va < 0 {
				va = 0
			}
			refMean[i], refSd[i] = m, math.Sqrt(va)
			var n2 float64
			for _, x := range vec {
				n2 += x * x
			}
			refNorm2[i] = n2
		}
		refLower := make([]float64, sh.k*(sh.k+1)/2)
		SecondMomentLower(refV, scale, refLower)

		mean := make([]float64, sh.b)
		sd := make([]float64, sh.b)
		norm2 := make([]float64, sh.b)
		lower := make([]float64, sh.k*(sh.k+1)/2)
		FusedBlockMoments(v, gm, gsd, scale, mean, sd, norm2, lower)

		for i := 0; i < sh.b; i++ {
			for j := 0; j < sh.k; j++ {
				if v[i][j] != refV[i][j] {
					t.Fatalf("b=%d k=%d: standardized v[%d][%d] %v != %v", sh.b, sh.k, i, j, v[i][j], refV[i][j])
				}
			}
			if mean[i] != refMean[i] || sd[i] != refSd[i] || norm2[i] != refNorm2[i] {
				t.Fatalf("b=%d k=%d: moments[%d] (%v,%v,%v) != (%v,%v,%v)",
					sh.b, sh.k, i, mean[i], sd[i], norm2[i], refMean[i], refSd[i], refNorm2[i])
			}
		}
		for i := range lower {
			if lower[i] != refLower[i] {
				t.Fatalf("b=%d k=%d: lower[%d] %v != %v", sh.b, sh.k, i, lower[i], refLower[i])
			}
		}
	}
}

// TestPairReduceF32MatchesReference checks the vectorized pairwise
// reduce against a widened float64 reference within the accumulation
// tolerance of float32 sums, including the j==i self-pair no-op and the
// zero-variance (invSd == 0) gate.
func TestPairReduceF32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, b := range []int{1, 7, 8, 9, 64, 131} {
		row := make([]float32, b)
		posR := make([]float32, b)
		posC := make([]float32, b)
		norm2 := make([]float32, b)
		mean := make([]float32, b)
		invSd := make([]float32, b)
		for j := 0; j < b; j++ {
			row[j] = float32(rng.NormFloat64())
			posR[j] = float32(j / 4)
			posC[j] = float32(j % 4)
			norm2[j] = float32(rng.Float64()*4 + 0.5)
			mean[j] = float32(rng.NormFloat64() * 0.1)
			invSd[j] = float32(1 / (rng.Float64() + 0.2))
		}
		invSd[b/2] = 0 // zero-variance block: rho must be gated to 0
		const invK2 = 1.0 / 16
		i := b / 3
		row[i] = norm2[i] // self dot ≈ norm2

		sumDs, sumDsDe, sumDsV := PairReduceF32(row, posR, posC, norm2, mean, invSd, i, invK2)

		var refDs, refDsDe, refDsV float64
		for j := 0; j < b; j++ {
			ds := math.Abs(float64(posR[i])-float64(posR[j])) + math.Abs(float64(posC[i])-float64(posC[j]))
			de2 := float64(norm2[i]) + float64(norm2[j]) - 2*float64(row[j])
			if de2 < 0 {
				de2 = 0
			}
			rho := (float64(row[j])*invK2 - float64(mean[i])*float64(mean[j])) *
				float64(invSd[i]) * float64(invSd[j])
			rho = math.Abs(rho)
			if rho > 1 {
				rho = 1
			}
			refDs += ds
			refDsDe += ds * math.Sqrt(de2)
			refDsV += ds * rho
		}
		tol := 1e-4 * (1 + math.Abs(refDsDe) + math.Abs(refDs))
		if math.Abs(sumDs-refDs) > tol || math.Abs(sumDsDe-refDsDe) > tol || math.Abs(sumDsV-refDsV) > tol {
			t.Fatalf("b=%d: (%v,%v,%v) != reference (%v,%v,%v)",
				b, sumDs, sumDsDe, sumDsV, refDs, refDsDe, refDsV)
		}
	}
}

// TestSymEigenValuesIntoMatches pins the pooled eigensolver against the
// allocating one bit-for-bit.
func TestSymEigenValuesIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 4, 16, 64} {
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		want := SymEigenValues(a)
		out := make([]float64, n)
		work := make([]float64, n*n)
		got := SymEigenValuesInto(a, out, work)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d: eig[%d] %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestTransposeInto checks the tiled transpose element-wise.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	v, _ := carveRows[float64](rng, 37, 41)
	dst := make([]float64, 37*41)
	TransposeInto(v, dst)
	for j := 0; j < 37; j++ {
		for x := 0; x < 41; x++ {
			if dst[x*37+j] != v[j][x] {
				t.Fatalf("dst[%d*37+%d] = %v, want %v", x, j, dst[x*37+j], v[j][x])
			}
		}
	}
}
