package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(n int, rng *rand.Rand) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func randSPD(n int, rng *rand.Rand) *Matrix {
	// AᵀA + n·I is SPD.
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	spd := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		spd.AddOuter(a.Row(r), 1)
	}
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(1, 2) != 6 {
		t.Errorf("At = %g", m.At(1, 2))
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 6 {
		t.Error("Row view wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone aliases")
	}
	m.Scale(2)
	if m.At(1, 2) != 12 {
		t.Error("Scale failed")
	}
}

func TestMulVecAndMul(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	y := a.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MulVec = %v", y)
	}
	b := transpose(a)
	c := Mul(a, b) // 2x2
	// c[0][0] = 1+4+9 = 14
	if c.At(0, 0) != 14 || c.At(1, 1) != 77 || c.At(0, 1) != 32 {
		t.Errorf("Mul = %v", c.Data)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(3, 3)
	m.AddOuter([]float64{1, 2, 3}, 2)
	if m.At(1, 2) != 12 || m.At(0, 0) != 2 {
		t.Errorf("AddOuter wrong: %v", m.Data)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	vals, vecs := SymEigen(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
	// Eigenvectors must be signed unit axis vectors.
	for c := 0; c < 3; c++ {
		var norm float64
		for r := 0; r < 3; r++ {
			norm += vecs.At(r, c) * vecs.At(r, c)
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Errorf("column %d norm² = %g", c, norm)
		}
	}
}

// TestSymEigenReconstruction: A·v_i ≈ λ_i·v_i and Σλ = tr(A).
func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(12) + 2
		a := randSym(n, rng)
		vals, vecs := SymEigen(a)
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		if math.Abs(trace-sum) > 1e-8*(1+math.Abs(trace)) {
			t.Fatalf("trace %g != eigenvalue sum %g", trace, sum)
		}
		for c := 0; c < n; c++ {
			v := make([]float64, n)
			for r := 0; r < n; r++ {
				v[r] = vecs.At(r, c)
			}
			av := a.MulVec(v)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-vals[c]*v[r]) > 1e-6*(1+math.Abs(vals[c])) {
					t.Fatalf("trial %d: A·v != λ·v at (%d,%d): %g vs %g", trial, r, c, av[r], vals[c]*v[r])
				}
			}
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", vals)
			}
		}
	}
}

func TestSymEigenValuesMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randSym(8, rng)
	full, _ := SymEigen(a)
	only := SymEigenValues(a)
	for i := range full {
		if math.Abs(full[i]-only[i]) > 1e-9 {
			t.Fatalf("values differ at %d: %g vs %g", i, full[i], only[i])
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(10) + 2
		a := randSPD(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		l, err := Cholesky(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := SolveCholesky(l, b)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				t.Fatalf("solve mismatch at %d: %g vs %g", i, got[i], x[i])
			}
		}
		// L·Lᵀ reconstructs A.
		lt := transpose(l)
		rec := Mul(l, lt)
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8*(1+math.Abs(a.Data[i])) {
				t.Fatal("L·Lᵀ != A")
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := Cholesky(a, 0); err == nil {
		t.Error("indefinite matrix accepted")
	}
	b := NewMatrix(2, 3)
	if _, err := Cholesky(b, 0); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSolveSPDRecoversWithJitter(t *testing.T) {
	// Singular matrix: SolveSPD should still return something via jitter.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	if _, err := SolveSPD(a, []float64{1, 1}); err != nil {
		t.Errorf("jittered solve failed: %v", err)
	}
}

func TestMahalanobis(t *testing.T) {
	cov := NewMatrix(2, 2)
	cov.Set(0, 0, 4)
	cov.Set(1, 1, 1)
	d, err := Mahalanobis([]float64{2, 0}, []float64{0, 0}, cov)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-9 { // 2/σ=2 → 1
		t.Errorf("Mahalanobis = %g, want 1", d)
	}
	// Self distance zero; symmetry.
	d0, _ := Mahalanobis([]float64{3, 4}, []float64{3, 4}, cov)
	if d0 != 0 {
		t.Errorf("self distance = %g", d0)
	}
	d1, _ := Mahalanobis([]float64{1, 2}, []float64{3, 4}, cov)
	d2, _ := Mahalanobis([]float64{3, 4}, []float64{1, 2}, cov)
	if math.Abs(d1-d2) > 1e-12 {
		t.Error("Mahalanobis not symmetric")
	}
	if _, err := Mahalanobis([]float64{1}, []float64{1, 2}, cov); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestPCA(t *testing.T) {
	// Points on a line y = 2x: first component explains everything.
	rng := rand.New(rand.NewSource(13))
	n := 200
	x := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x.Set(i, 0, v)
		x.Set(i, 1, 2*v)
	}
	p := PCA(x, 2)
	if p.Variance[0] <= 0 || p.Variance[1] > 1e-9*p.Variance[0] {
		t.Errorf("variances = %v, want rank-1 structure", p.Variance)
	}
	// Direction ∝ (1,2)/√5.
	dir := p.Components.Row(0)
	ratio := dir[1] / dir[0]
	if math.Abs(math.Abs(ratio)-2) > 1e-6 {
		t.Errorf("component direction ratio = %g", ratio)
	}
	scores := p.Transform(x)
	if scores.Rows != n || scores.Cols != 2 {
		t.Fatalf("scores shape %dx%d", scores.Rows, scores.Cols)
	}
	// Scores on PC2 are ~0.
	for i := 0; i < n; i++ {
		if math.Abs(scores.At(i, 1)) > 1e-6 {
			t.Fatalf("PC2 score %g", scores.At(i, 1))
		}
	}
}

// TestEigenOrthogonality: eigenvector matrix is orthogonal (VᵀV = I).
func TestEigenOrthogonality(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 2
		a := randSym(n, rng)
		_, v := SymEigen(a)
		vt := transpose(v)
		id := Mul(vt, v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(id.At(i, j)-want) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}
