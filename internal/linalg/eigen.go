package linalg

import (
	"math"
	"slices"
	"sort"
)

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns the eigenvalues in descending order and
// the matrix of corresponding eigenvectors (columns). This is the kernel
// the paper offloads to the GPU for the coding-gain and CovSVD-trunc
// metrics.
func SymEigen(a *Matrix) (values []float64, vectors *Matrix) {
	return symEigen(a, true)
}

// SymEigenValues computes only the eigenvalues (descending), skipping the
// rotation accumulation — roughly twice as fast, and all the predictors
// need (§IV-C's k⁶ term).
func SymEigenValues(a *Matrix) []float64 {
	values, _ := symEigen(a, false)
	return values
}

// SymEigenValuesInto is SymEigenValues with caller-provided storage for
// zero-allocation hot paths: out receives the eigenvalues (descending,
// length ≥ n) and work (length ≥ n²) holds the Jacobi iterate, so the
// call allocates nothing. The sweep schedule is identical to
// SymEigenValues, and sorting a multiset of values descending is
// order-insensitive, so the returned slice is bit-identical to
// SymEigenValues(a).
func SymEigenValuesInto(a *Matrix, out, work []float64) []float64 {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: SymEigen of non-square matrix")
	}
	if len(out) < n || len(work) < n*n {
		panic("linalg: SymEigenValuesInto storage too short")
	}
	work = work[:n*n]
	copy(work, a.Data)
	w := Matrix{Rows: n, Cols: n, Data: work}
	jacobiSweeps(&w, nil)
	out = out[:n]
	for i := 0; i < n; i++ {
		out[i] = work[i*n+i]
	}
	slices.Sort(out)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func symEigen(a *Matrix, wantVectors bool) (values []float64, vectors *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: SymEigen of non-square matrix")
	}
	// Work on a copy; accumulate rotations in v.
	w := a.Clone()
	var v *Matrix
	if wantVectors {
		v = NewMatrix(n, n)
		for i := 0; i < n; i++ {
			v.Set(i, i, 1)
		}
	}
	jacobiSweeps(w, v)
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
	}
	// Sort descending, permuting eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] > values[idx[j]] })
	sorted := make([]float64, n)
	if wantVectors {
		vectors = NewMatrix(n, n)
	}
	for newCol, oldCol := range idx {
		sorted[newCol] = values[oldCol]
		if wantVectors {
			for r := 0; r < n; r++ {
				vectors.Set(r, newCol, v.At(r, oldCol))
			}
		}
	}
	return sorted, vectors
}

// jacobiSweeps runs the thresholded cyclic Jacobi iteration on w in
// place, accumulating rotations into v when non-nil, and returns how
// many sweeps it ran.
func jacobiSweeps(w, v *Matrix) int {
	n := w.Rows
	const maxSweeps = 48
	sweep := 0
	for ; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off == 0 {
			break
		}
		// Convergence relative to the matrix scale. Jacobi converges
		// quadratically, so a 1e-9 relative off-diagonal norm leaves
		// eigenvalues accurate far beyond what the downstream metrics
		// resolve. Written as !(off > …) so a NaN norm also stops: a
		// NaN entry never converges, and would otherwise run all
		// maxSweeps sweeps.
		scale := frobNorm(w)
		if scale == 0 || !(off > 1e-9*scale) {
			break
		}
		// Thresholded sweep: rotations that cannot move the off-diagonal
		// norm past the convergence target are skipped (classic
		// thresholded Jacobi), which prunes most of the late sweeps.
		thresh := 1e-10 * scale / float64(n)
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 || math.Abs(apq) < thresh {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Rotation angle per Golub & Van Loan.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				rotate(w, p, q, c, s)
				if v != nil {
					rotateCols(v, p, q, c, s)
				}
			}
		}
	}
	return sweep
}

// rotate applies the two-sided Jacobi rotation J(p,q,θ)ᵀ A J(p,q,θ) in
// place on symmetric w, operating on the rows directly for speed.
//
// The row update runs branch-free over every i in [0,n): four lanes at
// a time in the AVX2 kernel where the CPU has it (rotateRowsF64), then
// the scalar loop for the rest. Iterations i = p and i = q compute
// wrong values, but they write them only into the entries (p,p), (p,q),
// (q,p) and (q,q), which only those two iterations read and which are
// overwritten afterwards from values computed up front. Every other
// element gets the inputs and the round(mul) → round(sub/add) sequence
// of the scalar statement, so the result is bit-identical to a loop
// that skips i = p and i = q.
func rotate(w *Matrix, p, q int, c, s float64) {
	n := w.Rows
	rowP, rowQ := w.Row(p), w.Row(q)
	app, aqq, apq := rowP[p], rowQ[q], rowP[q]
	newPP := c*c*app - 2*s*c*apq + s*s*aqq
	newQQ := s*s*app + 2*s*c*apq + c*c*aqq
	// Update rows p and q (and mirror onto columns via symmetry).
	for i := rotateRowsF64(w.Data, n, p, q, c, s); i < n; i++ {
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

// rotateCols applies the rotation to the eigenvector accumulator columns.
func rotateCols(v *Matrix, p, q int, c, s float64) {
	n := v.Cols
	for i := 0; i < v.Rows; i++ {
		row := v.Data[i*n:]
		vip, viq := row[p], row[q]
		row[p] = c*vip - s*viq
		row[q] = s*vip + c*viq
	}
}

func offDiagNorm(w *Matrix) float64 {
	var s float64
	n := w.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += 2 * w.At(i, j) * w.At(i, j)
		}
	}
	return math.Sqrt(s)
}

func frobNorm(w *Matrix) float64 {
	var s float64
	for _, v := range w.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// PCAResult holds a principal component analysis: component directions
// (rows of Components), the explained variance of each component, and the
// column means removed before projection.
type PCAResult struct {
	Components *Matrix   // nComp × d, rows are unit principal directions
	Variance   []float64 // explained variance per component, descending
	Means      []float64 // column means of the input
}

// PCA fits a principal component analysis to the n×d row-sample matrix x
// and keeps nComp components. It is used to reproduce the paper's Fig. 2
// cluster visualization.
func PCA(x *Matrix, nComp int) *PCAResult {
	n, d := x.Rows, x.Cols
	if nComp > d {
		nComp = d
	}
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	cov := NewMatrix(d, d)
	centered := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			centered[j] = v - means[j]
		}
		cov.AddOuter(centered, 1)
	}
	if n > 1 {
		cov.Scale(1 / float64(n-1))
	}
	vals, vecs := SymEigen(cov)
	res := &PCAResult{
		Components: NewMatrix(nComp, d),
		Variance:   make([]float64, nComp),
		Means:      means,
	}
	for c := 0; c < nComp; c++ {
		res.Variance[c] = vals[c]
		for j := 0; j < d; j++ {
			res.Components.Set(c, j, vecs.At(j, c))
		}
	}
	return res
}

// Transform projects the rows of x onto the principal components,
// returning an n×nComp score matrix.
func (p *PCAResult) Transform(x *Matrix) *Matrix {
	n := x.Rows
	nComp := p.Components.Rows
	out := NewMatrix(n, nComp)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for c := 0; c < nComp; c++ {
			comp := p.Components.Row(c)
			var s float64
			for j, v := range row {
				s += (v - p.Means[j]) * comp[j]
			}
			out.Set(i, c, s)
		}
	}
	return out
}
