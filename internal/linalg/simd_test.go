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

// kernelSets are the two kernel sets a process can run, vector first.
var kernelSets = [...]struct {
	name string
	avx2 bool
}{{"avx2", true}, {"scalar", false}}

// setAVX2 switches the AVX2 kernels on or off and returns the function
// that restores the setting before. No linalg test runs in parallel, so
// the switch reaches every kernel call until the restore.
func setAVX2(on bool) (restore func()) {
	before := haveAVX2FMA
	haveAVX2FMA = on
	return func() { haveAVX2FMA = before }
}

// runKernelSets runs fn as one subtest or sub-benchmark per kernel set,
// with the package switched to it. Where the AVX2 kernels cannot run,
// their variant is skipped with a log line, so the run reports it as
// skipped, not as passed.
func runKernelSets[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, fn func(T)) {
	for _, ks := range kernelSets {
		t.Run(ks.name, func(t T) {
			if ks.avx2 && !haveAVX2FMA {
				t.Skip("avx2 kernels skipped: this process runs the scalar kernels only")
			}
			defer setAVX2(ks.avx2)()
			fn(t)
		})
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

// TestTransposeInto pins the panel layout element by element at both
// element types: panels of w rows (8 at float64, 16 at float32), each
// its own k×w transpose, then the last n mod w rows as one k×r panel.
// Every one of the n·k elements is written and nothing past them.
func TestTransposeInto(t *testing.T) {
	// A literal case: 10 float64 rows of length 2, v[j][x] = 10j + x,
	// are one full 8-row panel and a 2-row partial one.
	v := make([][]float64, 10)
	for j := range v {
		v[j] = []float64{float64(10 * j), float64(10*j + 1)}
	}
	dst := make([]float64, 20)
	TransposeInto(v, dst)
	want := []float64{
		0, 10, 20, 30, 40, 50, 60, 70, // panel 0, x = 0
		1, 11, 21, 31, 41, 51, 61, 71, // panel 0, x = 1
		80, 90, // panel 1 (r = 2), x = 0
		81, 91, // panel 1, x = 1
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("literal case: dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	checkTransposeLayout[float64](t, 8)
	checkTransposeLayout[float32](t, 16)
}

// checkTransposeLayout checks TransposeInto at panel width w for row
// counts that end on a panel boundary and one row short of and past it.
func checkTransposeLayout[F Float](t *testing.T, w int) {
	t.Helper()
	if got := panelWidth[F](); got != w {
		t.Fatalf("panelWidth = %d, want %d", got, w)
	}
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{1, w - 1, w, w + 1, 4*w + 5} {
		const k = 41
		v, _ := carveRows[F](rng, n, k)
		dst := make([]F, n*k+1)
		for i := range dst {
			dst[i] = F(gramSentinel)
		}
		TransposeInto(v, dst)
		full := n / w * w // rows in whole panels
		for j := 0; j < n; j++ {
			for x := 0; x < k; x++ {
				idx := (j/w)*w*k + x*w + j%w
				if j >= full {
					idx = full*k + x*(n-full) + (j - full)
				}
				if dst[idx] != v[j][x] {
					t.Fatalf("w=%d n=%d: dst[%d] = %v, want v[%d][%d] = %v", w, n, idx, dst[idx], j, x, v[j][x])
				}
			}
		}
		for i, e := range dst {
			if e != e && i < n*k {
				t.Fatalf("w=%d n=%d: dst[%d] never written", w, n, i)
			}
			if e == e && i == n*k {
				t.Fatalf("w=%d n=%d: wrote dst[%d], past n·k", w, n, i)
			}
		}
	}
}
