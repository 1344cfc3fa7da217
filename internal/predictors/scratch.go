package predictors

import (
	"sync"
	"unsafe"

	"github.com/crestlab/crest/internal/linalg"
)

// scratch.go pools the per-call working memory of ComputeDataset so the
// hot path stops allocating per buffer: the vectorized block matrix and
// its slice headers, the per-block moment arrays, the pairwise-pass
// outputs and partner sums, the eigensolver working set, and (when it
// fits the budget) the B×B Gram matrix. The pool is safe for concurrent
// ComputeDataset calls — each call checks out one scratch; the streaming
// Gram path additionally checks out per-worker panel buffers from a
// second pool. Everything element-typed is generic over float32/float64
// with one pool per instantiation; the float64 stat arrays (moments,
// reduction terms, Σ) are shared by both instantiations because every
// reduction accumulates in float64 regardless of the stored element
// type (see internal/linalg's precision contract).
//
// Shape-reuse contract (the PR 6 arm() bug class): getScratch resizes
// every array for the requested (b, k²) and re-carves vecs from the
// backing, so a scratch checked out after a differently shaped call
// carries no stale geometry. The shape-churn hammer test pins this
// under -race.

const (
	// maxGramBytes bounds the pooled B×B Gram buffer. Up to this size
	// the pairwise pass fills only the lower triangle of G = V·Vᵀ
	// (halving the dot-product work): the float64 pass sweeps that
	// triangle as it stands (linalg.PairSweepF64), and the float32
	// pass mirrors it and folds full rows. Past it, the pass streams
	// L1-resident row panels instead. 192 MiB admits B = 4096 float64
	// blocks — a 512×512 buffer at the default k = 8, whose Gram
	// buffer is 128 MiB although the sweep reads only half of it — and
	// twice as many blocks at float32.
	maxGramBytes = 192 << 20

	// symPanelRows is the panel height of the symmetric full-Gram fill:
	// the unit of parallel work handed to one worker. A multiple of the
	// kernel's 4-row register block.
	symPanelRows = 16

	// streamPanelRows is the panel height of the streaming fallback
	// pass. At B = 8192 a panel is 8192·32·8 = 2 MiB of Gram rows,
	// sized for the L2 cache.
	streamPanelRows = 32
)

// dsScratch is the reusable working set of one ComputeDataset call.
type dsScratch[F linalg.Float] struct {
	// Block vectorization (the standardized B×k² matrix V), its
	// k²×B transpose (the SIMD Gram kernel's layout), and the full
	// Gram matrix (budget-gated; left nil on the streaming path).
	vecs    [][]F
	backing []F
	vt      []F
	gram    []F

	// Per-block moments (always float64 — the reduction precision).
	mean  []float64
	sd    []float64 // w^intra
	norm2 []float64 // Σ x²

	// Block positions as floats, so the pairwise pass computes the
	// Manhattan distance without per-pair div/mod.
	posR, posC []float64

	// float32 mirrors of the per-block stats, filled only by the
	// float32 instantiation for the vectorized pairwise reduce.
	// invSd32[i] holds 1/sd[i] with an exact zero where sd[i] == 0,
	// which encodes the "both sds positive" correlation gate (see
	// linalg.PairReduceF32).
	posR32, posC32  []float32
	norm232, mean32 []float32
	invSd32         []float32

	// Pairwise-pass outputs and the ordered-reduction term buffer. The
	// float64 full-Gram sweep accumulates Σ Ds·De and Σ Ds·|ρ| straight
	// into wInter and scBlock and Σ Ds into pairDs (the partner sums),
	// then divides in place.
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

	// Reduction constants of the current shape (see reduceRow): k² and,
	// when k² is a power of two, its exact reciprocal (else 0).
	fk2   float64
	invK2 float64
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
// the SIMD kernels detect) and the reduction constants set for k².
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
	s.fk2 = float64(k2)
	s.invK2 = 0
	if k2&(k2-1) == 0 {
		s.invK2 = 1 / s.fk2
	}
	if isF32[F]() {
		s.posR32 = grow(s.posR32, b)
		s.posC32 = grow(s.posC32, b)
		s.norm232 = grow(s.norm232, b)
		s.mean32 = grow(s.mean32, b)
		s.invSd32 = grow(s.invSd32, b)
	}
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

// isF32 reports whether the instantiation stores float32 elements.
func isF32[F linalg.Float]() bool {
	var z F
	return unsafe.Sizeof(z) == 4
}

// panelPool recycles streaming-pass Gram panels; each concurrent worker
// of the streaming path holds at most one.
var (
	panelPool64 sync.Pool
	panelPool32 sync.Pool
)

func getPanel[F linalg.Float](n int) []F {
	pool := &panelPool64
	if isF32[F]() {
		pool = &panelPool32
	}
	if p, ok := pool.Get().(*[]F); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]F, n)
}

func putPanel[F linalg.Float](p []F) {
	pool := &panelPool64
	if isF32[F]() {
		pool = &panelPool32
	}
	p = p[:cap(p)]
	pool.Put(&p)
}
