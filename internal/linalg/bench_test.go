package linalg

import (
	"math/rand"
	"testing"
)

func benchSym(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	return randSym(n, rng)
}

func BenchmarkSymEigen64(b *testing.B) {
	a := benchSym(64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SymEigen(a)
	}
}

func BenchmarkSymEigenValues64(b *testing.B) {
	a := benchSym(64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SymEigenValues(a)
	}
}

func BenchmarkSymEigenValues16(b *testing.B) {
	a := benchSym(16, 2)
	for i := 0; i < b.N; i++ {
		SymEigenValues(a)
	}
}

// BenchmarkSymEigenValuesInto64 times the eigensolve every estimate
// pays, on the path production runs: the pooled, values-only call on
// the 64×64 second moment Σ of a smooth 128×128 field in 8×8 blocks,
// built by FusedBlockMoments as the predictors build it. Random
// symmetric matrices (the benchmarks above) converge differently. The
// eight fields cycle so that no single spectrum sets the time.
func BenchmarkSymEigenValuesInto64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sigmas := make([]*Matrix, 8)
	for i := range sigmas {
		sigmas[i] = secondMoment(rng, 64, 16)
	}
	out := make([]float64, 64)
	work := make([]float64, 64*64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymEigenValuesInto(sigmas[i%len(sigmas)], out, work)
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(32, rng)
	rhs := make([]float64, 32)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Cholesky(a, 0)
		if err != nil {
			b.Fatal(err)
		}
		SolveCholesky(l, rhs)
	}
}

// Gram benchmarks: the naive per-pair scalar loop (the pre-kernel
// predictor hot path) against the register-blocked panel kernel, at the
// shape of a 256×256 buffer with k=8 (B=1024 blocks of k²=64).
func benchGramRows(n, k int) [][]float64 {
	rng := rand.New(rand.NewSource(9))
	v := make([][]float64, n)
	backing := make([]float64, n*k)
	for i := range v {
		v[i] = backing[i*k : (i+1)*k]
		for x := range v[i] {
			v[i][x] = rng.NormFloat64()
		}
	}
	return v
}

func BenchmarkGramNaive1024x64(b *testing.B) {
	v := benchGramRows(1024, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveGram(v)
	}
}

func BenchmarkGramTiled1024x64(b *testing.B) {
	v := benchGramRows(1024, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gram(v)
	}
}

func BenchmarkGramPanel32x1024x64(b *testing.B) {
	v := benchGramRows(1024, 64)
	out := make([]float64, 32*1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramPanel(v, 0, 32, out)
	}
}

func BenchmarkSecondMomentLower1024x64(b *testing.B) {
	v := benchGramRows(1024, 64)
	out := make([]float64, 64*65/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SecondMomentLower(v, 1.0/1024, out)
	}
}

func BenchmarkPCA(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := NewMatrix(500, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PCA(x, 2)
		p.Transform(x)
	}
}
