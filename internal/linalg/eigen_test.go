package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refRotate is the scalar rotation the vector kernel replaced, kept as
// the reference: it skips i = p and i = q instead of fixing their
// entries up afterwards. rotate must match it bit for bit.
func refRotate(w *Matrix, p, q int, c, s float64) {
	n := w.Rows
	rowP, rowQ := w.Row(p), w.Row(q)
	app, aqq, apq := rowP[p], rowQ[q], rowP[q]
	newPP := c*c*app - 2*s*c*apq + s*s*aqq
	newQQ := s*s*app + 2*s*c*apq + c*c*aqq
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip, aiq := rowP[i], rowQ[i]
		nip := c*aip - s*aiq
		niq := s*aip + c*aiq
		rowP[i], rowQ[i] = nip, niq
		w.Data[i*n+p] = nip
		w.Data[i*n+q] = niq
	}
	rowP[p], rowQ[q] = newPP, newQQ
	rowP[q], rowQ[p] = 0, 0
}

// lockstepJacobi runs the thresholded cyclic Jacobi iteration on two
// copies of a, one rotated by refRotate and one by rotate, and fails at
// the first rotation after which rows or columns p and q differ in any
// bit. It returns the reference iterate and its sweep count.
func lockstepJacobi(t *testing.T, name string, a *Matrix) (*Matrix, int) {
	t.Helper()
	ref, got := a.Clone(), a.Clone()
	n := ref.Rows
	sweep := 0
	for ; sweep < 48; sweep++ {
		off := offDiagNorm(ref)
		if off == 0 {
			break
		}
		scale := frobNorm(ref)
		if scale == 0 || off <= 1e-9*scale {
			break
		}
		thresh := 1e-10 * scale / float64(n)
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := ref.At(p, q)
				if apq == 0 || math.Abs(apq) < thresh {
					continue
				}
				app, aqq := ref.At(p, p), ref.At(q, q)
				tau := (aqq - app) / (2 * apq)
				var tt float64
				if tau >= 0 {
					tt = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					tt = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+tt*tt)
				s := tt * c
				refRotate(ref, p, q, c, s)
				rotate(got, p, q, c, s)
				for i := 0; i < n; i++ {
					for _, e := range [][2]int{{p, i}, {q, i}, {i, p}, {i, q}} {
						r, g := ref.At(e[0], e[1]), got.At(e[0], e[1])
						if math.Float64bits(r) != math.Float64bits(g) {
							t.Fatalf("%s: sweep %d, rotation (%d,%d): entry %v: reference %v != %v",
								name, sweep, p, q, e, r, g)
						}
					}
				}
			}
		}
	}
	return ref, sweep
}

// TestRotateBitIdentical applies one rotation at every (p,q) — both in
// one 4-lane chunk, in adjacent or distant chunks, and in the ragged
// tail — and compares the whole matrix with refRotate bit for bit. A
// lane that fused its multiply-add, or a dropped fix-up of the (p,p),
// (p,q), (q,p), (q,q) entries, fails here.
func TestRotateBitIdentical(t *testing.T) {
	t.Logf("AVX2 kernels enabled: %v", SIMDEnabled())
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65} {
		a := randSym(n, rng)
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				theta := (rng.Float64() - 0.5) * math.Pi / 2
				c, s := math.Cos(theta), math.Sin(theta)
				ref, got := a.Clone(), a.Clone()
				refRotate(ref, p, q, c, s)
				rotate(got, p, q, c, s)
				for i, r := range ref.Data {
					if g := got.Data[i]; math.Float64bits(r) != math.Float64bits(g) {
						t.Fatalf("n=%d rotation (%d,%d): entry (%d,%d): reference %v != %v",
							n, p, q, i/n, i%n, r, g)
					}
				}
			}
		}
	}
}

// TestJacobiBitIdentical runs whole Jacobi iterations with rotate and
// with refRotate in lock step, and then jacobiSweeps itself, on every
// matrix kind whose convergence differs: the final iterate, and so
// every eigenvalue, must carry the reference bits.
func TestJacobiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100}
	kinds := []struct {
		name string
		make func(n int) *Matrix
	}{
		{"random", func(n int) *Matrix { return randSym(n, rng) }},
		{"second-moment", func(n int) *Matrix { return secondMoment(rng, n, 6) }},
		{"zero", func(n int) *Matrix { return NewMatrix(n, n) }},
		{"diagonal", func(n int) *Matrix {
			a := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				a.Set(i, i, rng.NormFloat64())
			}
			return a
		}},
		{"repeated", func(n int) *Matrix { return repeatedEigen(rng, n) }},
		{"mixed-magnitude", func(n int) *Matrix {
			a := randSym(n, rng)
			d := make([]float64, n)
			for i := range d {
				d[i] = math.Pow(10, 12*rng.Float64()-6)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, a.At(i, j)*d[i]*d[j])
				}
			}
			return a
		}},
	}
	for _, k := range kinds {
		for _, n := range sizes {
			a := k.make(n)
			name := fmt.Sprintf("%s/n=%d", k.name, n)
			ref, refSweeps := lockstepJacobi(t, name, a)
			got := a.Clone()
			if sweeps := jacobiSweeps(got, nil); sweeps != refSweeps {
				t.Fatalf("%s: %d sweeps, reference %d", name, sweeps, refSweeps)
			}
			for i, r := range ref.Data {
				if g := got.Data[i]; math.Float64bits(r) != math.Float64bits(g) {
					t.Fatalf("%s: final entry (%d,%d): reference %v != %v", name, i/n, i%n, r, g)
				}
			}
		}
	}
}

// TestJacobiSweepsStopsOnNaN: a NaN entry makes both norms NaN, which
// never meets the convergence target; the iteration must stop at once
// instead of running every sweep on NaN.
func TestJacobiSweepsStopsOnNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, e := range [][2]int{{0, 0}, {3, 5}, {63, 63}} {
		a := randSym(64, rng)
		a.Set(e[0], e[1], math.NaN())
		a.Set(e[1], e[0], math.NaN())
		if sweeps := jacobiSweeps(a, nil); sweeps != 0 {
			t.Errorf("NaN at %v: %d sweeps, want 0", e, sweeps)
		}
	}
}

// secondMoment builds the k²×k² block second moment the predictors
// eigendecompose, for any n = kr·kc: a smooth, noisy field of
// side·kr × side·kc is cut into side² blocks of kr×kc, each flattened
// into one row, and FusedBlockMoments standardizes the rows by the
// field's moments and accumulates Σ = (1/B)·Σ_b v_b·v_bᵀ. At n = 64 and
// side = 16 this is Σ of a 128×128 buffer in 8×8 blocks.
func secondMoment(rng *rand.Rand, n, side int) *Matrix {
	kr := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			kr = d
		}
	}
	kc := n / kr
	rows, cols := side*kr, side*kc
	type wave struct{ amp, fx, fy, phase float64 }
	waves := make([]wave, 6)
	for i := range waves {
		waves[i] = wave{rng.Float64() + 0.2, 0.3 * rng.Float64(), 0.3 * rng.Float64(), 2 * math.Pi * rng.Float64()}
	}
	field := make([]float64, rows*cols)
	var sum, sum2 float64
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			v := 0.05 * rng.NormFloat64()
			for _, w := range waves {
				v += w.amp * math.Sin(w.fx*float64(x)+w.fy*float64(y)+w.phase)
			}
			field[y*cols+x] = v
			sum += v
			sum2 += v * v
		}
	}
	gm := sum / float64(len(field))
	gsd := math.Sqrt(sum2/float64(len(field)) - gm*gm)
	b := side * side
	backing := make([]float64, b*n)
	v := make([][]float64, b)
	for bi := 0; bi < side; bi++ {
		for bj := 0; bj < side; bj++ {
			row := backing[(bi*side+bj)*n : (bi*side+bj+1)*n]
			for r := 0; r < kr; r++ {
				copy(row[r*kc:(r+1)*kc], field[(bi*kr+r)*cols+bj*kc:])
			}
			v[bi*side+bj] = row
		}
	}
	mean, sd, norm2 := make([]float64, b), make([]float64, b), make([]float64, b)
	lower := make([]float64, n*(n+1)/2)
	FusedBlockMoments(v, gm, gsd, 1/float64(b), mean, sd, norm2, lower)
	sigma := NewMatrix(n, n)
	idx := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sigma.Set(i, j, lower[idx])
			sigma.Set(j, i, lower[idx])
			idx++
		}
	}
	return sigma
}

// repeatedEigen returns H·D·H for a random Householder reflection H and
// a diagonal D whose values repeat in runs of three, so the spectrum
// has multiple eigenvalues; entries are computed once and mirrored to
// keep the matrix exactly symmetric.
func repeatedEigen(rng *rand.Rand, n int) *Matrix {
	u := make([]float64, n)
	var uu float64
	for i := range u {
		u[i] = rng.NormFloat64()
		uu += u[i] * u[i]
	}
	h := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, -2*u[i]*u[j]/uu)
		}
		h.Add(i, i, 1)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += h.At(i, k) * float64(1+k/3) * h.At(j, k)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}
