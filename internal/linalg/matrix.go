// Package linalg implements the dense linear algebra required by the
// predictors and the estimation model: symmetric eigendecomposition
// (cyclic Jacobi), Cholesky factorization and solves, principal
// component analysis and the Mahalanobis distance.
//
// The paper offloads the eigendecomposition and block outer products to a
// GPU; this package is the pure-Go substrate those routines run on, with
// parallelism supplied by internal/parallel at the call sites.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a sub-slice of the backing array.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddOuter accumulates m += scale · x xᵀ for a vector x of length m.Rows.
// This is the outer-product kernel the paper offloads to the GPU when
// forming the block covariance Σ = (1/B) Σ_b X^b (X^b)ᵀ.
func (m *Matrix) AddOuter(x []float64, scale float64) {
	n := m.Rows
	if m.Cols != n || len(x) != n {
		panic("linalg: AddOuter shape mismatch")
	}
	for i := 0; i < n; i++ {
		xi := x[i] * scale
		row := m.Row(i)
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
}

// MulVec returns y = M x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec shape mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul returns the product A·B.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: Mul shape mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// Transpose returns Mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// ErrNotSPD reports a matrix that is not symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix not symmetric positive definite")

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive-definite A. The jitter is added to the diagonal before
// factorization to regularize near-singular covariance matrices (pass 0
// for none).
func Cholesky(a *Matrix, jitter float64) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			if i == j {
				s += jitter
			}
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotSPD
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	// forward: L y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// backward: Lᵀ x = y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveSPD solves A x = b for symmetric positive-definite A, adding an
// escalating diagonal jitter when the factorization fails numerically.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		l, err := Cholesky(a, jitter)
		if err == nil {
			return SolveCholesky(l, b), nil
		}
		if jitter == 0 {
			jitter = 1e-10 * (1 + traceAbs(a)/float64(a.Rows))
		} else {
			jitter *= 100
		}
	}
	return nil, ErrNotSPD
}

func traceAbs(a *Matrix) float64 {
	var t float64
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	for i := 0; i < n; i++ {
		t += math.Abs(a.At(i, i))
	}
	return t
}

// Mahalanobis returns the Mahalanobis distance between mean vectors mu1 and
// mu2 under the pooled covariance cov: sqrt((μ1−μ2)ᵀ Σ⁻¹ (μ1−μ2)). It is
// the field-similarity metric of §VI-E.
func Mahalanobis(mu1, mu2 []float64, cov *Matrix) (float64, error) {
	if len(mu1) != len(mu2) || cov.Rows != len(mu1) || cov.Cols != len(mu1) {
		return 0, fmt.Errorf("linalg: Mahalanobis shape mismatch")
	}
	d := make([]float64, len(mu1))
	for i := range d {
		d[i] = mu1[i] - mu2[i]
	}
	x, err := SolveSPD(cov, d)
	if err != nil {
		return 0, err
	}
	var s float64
	for i := range d {
		s += d[i] * x[i]
	}
	if s < 0 {
		s = 0
	}
	return math.Sqrt(s), nil
}
