package predictors

import (
	"sync"

	"github.com/crestlab/crest/internal/linalg"
)

// scratch.go pools the per-call working memory of ComputeDataset so the
// hot path stops allocating per buffer: the vectorized block matrix and
// its slice headers, its transpose, one block of lower Gram rows (and,
// for float32, one widened row), the per-block moment arrays, the
// pairwise-pass outputs and partner sums, and the eigensolver working
// set. The pool is safe for concurrent ComputeDataset calls — each call
// checks out one scratch. Everything element-typed is generic over
// float32/float64 with one pool per instantiation; the float64 stat
// arrays (moments, pair sums, Σ) are shared by both instantiations
// because every reduction accumulates in float64 regardless of the
// stored element type (see internal/linalg's precision contract).
//
// Shape-reuse contract (the PR 6 arm() bug class): getScratch resizes
// every array for the requested (b, k²) and re-carves vecs from the
// backing, so a scratch checked out after a differently shaped call
// carries no stale geometry. The shape-churn hammer test pins this
// under -race.

const (
	// pairBlockRows is the block height of the pairwise pass: the rows
	// of the lower Gram triangle filled, then swept, at a time. The
	// block buffer holds pairBlockRows·B elements, 4 MiB for a 512×512
	// float64 buffer at the default k = 8. Each block is one fork-join
	// of the fill, so smaller blocks cost more wake-ups. A multiple of
	// symPanelRows.
	pairBlockRows = 128

	// pairBlockMinElems is the least size of a block in Gram entries
	// (512 KiB at float64), so B ≤ 256 blocks (a 128×128 buffer at
	// k = 8) are filled and swept as one block: such a matrix is cache
	// resident whole, and a second block would only add a fork-join.
	pairBlockMinElems = 1 << 16

	// symPanelRows is the panel height of the Gram fill: the unit of
	// parallel work handed to one worker. A multiple of the kernel's
	// 4-row register block; block heights are multiples of it, so the
	// panels, and with them the float32 Gram entries, do not depend on
	// the block height.
	symPanelRows = 16
)

// dsScratch is the reusable working set of one ComputeDataset call.
type dsScratch[F linalg.Float] struct {
	// Block vectorization (the standardized B×k² matrix V), its
	// k²×B transpose (the SIMD Gram kernel's layout), the current
	// block of lower Gram rows at row stride B, and (float32 only) the
	// Gram row widened for the float64 sweep.
	vecs    [][]F
	backing []F
	vt      []F
	gram    []F
	row64   []float64

	// Per-block moments (always float64 — the reduction precision).
	mean  []float64
	sd    []float64 // w^intra
	norm2 []float64 // Σ x²

	// Block positions as floats, so the pairwise pass computes the
	// Manhattan distance without per-pair div/mod.
	posR, posC []float64

	// Pairwise-pass outputs and the ordered-reduction term buffer. The
	// sweep accumulates Σ Ds·De and Σ Ds·|ρ| straight into wInter and
	// scBlock and Σ Ds into pairDs (the partner sums), then divides in
	// place.
	wInter  []float64 // Σ Ds·De / Σ Ds
	scBlock []float64 // Σ Ds·|ρ| / Σ Ds
	pairDs  []float64 // Σ Ds
	terms   []float64

	// Second-moment accumulation target, the k²×k² matrix backing, and
	// the pooled eigensolver working set.
	lower   []float64
	sigma   []float64
	eigVals []float64
	eigWork []float64
}

var (
	dsPool64 = sync.Pool{New: func() any { return new(dsScratch[float64]) }}
	dsPool32 = sync.Pool{New: func() any { return new(dsScratch[float32]) }}
)

// grow returns s resized to n, reusing capacity when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getScratch checks a scratch out of the pool sized for b blocks of k²
// elements, with vecs carved from the backing at stride k² (the layout
// the SIMD kernels detect).
func getScratch[F linalg.Float](b, k2 int) *dsScratch[F] {
	var s *dsScratch[F]
	switch p := any(&s).(type) {
	case **dsScratch[float64]:
		*p = dsPool64.Get().(*dsScratch[float64])
	case **dsScratch[float32]:
		*p = dsPool32.Get().(*dsScratch[float32])
	}
	s.backing = grow(s.backing, b*k2)
	if cap(s.vecs) < b {
		s.vecs = make([][]F, b)
	}
	s.vecs = s.vecs[:b]
	for i := 0; i < b; i++ {
		s.vecs[i] = s.backing[i*k2 : (i+1)*k2]
	}
	s.mean = grow(s.mean, b)
	s.sd = grow(s.sd, b)
	s.norm2 = grow(s.norm2, b)
	s.posR = grow(s.posR, b)
	s.posC = grow(s.posC, b)
	s.wInter = grow(s.wInter, b)
	s.scBlock = grow(s.scBlock, b)
	s.pairDs = grow(s.pairDs, b)
	s.terms = grow(s.terms, b)
	s.lower = grow(s.lower, k2*(k2+1)/2)
	s.sigma = grow(s.sigma, k2*k2)
	s.eigVals = grow(s.eigVals, k2)
	s.eigWork = grow(s.eigWork, k2*k2)
	return s
}

func putScratch[F linalg.Float](s *dsScratch[F]) {
	switch t := any(s).(type) {
	case *dsScratch[float64]:
		dsPool64.Put(t)
	case *dsScratch[float32]:
		dsPool32.Put(t)
	}
}
