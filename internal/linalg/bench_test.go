package linalg

import (
	"fmt"
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

// benchGramRows carves n standard-normal rows of length k from one
// backing slice, the layout the predictors' scratch uses.
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

// BenchmarkGramFill times the Gram fill of the pairwise pass on one
// goroutine, in the production order: the panel transpose, then the
// lower triangle in 128-row blocks (predictors' pairBlockRows) of
// 16-row GramBlockT panels (symPanelRows), each block written into one
// 128×B buffer. Rows are carved at one stride with k² = 64, as the
// predictors carve them. It reports GMAC/s, the multiply-adds of every
// panel's columns [0, phi) per second, for each kernel the CPU has.
func BenchmarkGramFill(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("f64/B=%d", n), func(b *testing.B) {
			runKernelSets(b, func(b *testing.B) { benchGramFill[float64](b, n) })
		})
	}
	b.Run("f32/B=1024", func(b *testing.B) {
		runKernelSets(b, func(b *testing.B) { benchGramFill[float32](b, 1024) })
	})
}

func benchGramFill[F Float](b *testing.B, n int) {
	const k, blockRows, panelRows = 64, 128, 16
	v, _ := carveRows[F](rand.New(rand.NewSource(9)), n, k)
	vt := make([]F, n*k)
	gram := make([]F, min(blockRows, n)*n)
	var macs float64
	for plo := 0; plo < n; plo += panelRows {
		phi := min(plo+panelRows, n)
		macs += float64((phi - plo) * phi * k)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		TransposeInto(v, vt)
		for lo := 0; lo < n; lo += blockRows {
			hi := min(lo+blockRows, n)
			for plo := lo; plo < hi; plo += panelRows {
				phi := min(plo+panelRows, hi)
				GramBlockT(v, vt, plo, phi, 0, phi, gram[(plo-lo)*n:], n)
			}
		}
	}
	b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}
