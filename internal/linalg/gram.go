package linalg

import "unsafe"

// gram.go implements the cache-blocked Gram-matrix kernel behind the
// fused predictor pass (§IV-C): the pairwise SD/SC pass sweeps the lower
// triangle of G = V·Vᵀ for the B×k² standardized block matrix V, one
// block of rows at a time (GramBlockT fills it, PairSweepF64 folds it),
// and the block second-moment matrix Σ = (1/B)·VᵀV feeds the
// eigendecomposition.
//
// Determinism contract: every output element is accumulated as a single
// forward-order sum (index 0 → n−1) with one accumulator, exactly the
// order of the textbook scalar loop `for x { dot += a[x]*b[x] }`. Because
// IEEE-754 multiplication commutes exactly and the summation order is
// fixed, every element is bit-identical to the naive per-pair loop — and
// to its mirrored element, so filling only the lower triangle is
// bit-safe. Speed comes from cache blocking and instruction-level
// parallelism *across* independent output elements (register-blocked
// rows, and on amd64 SIMD lanes spanning adjacent output columns — see
// GramBlockT), never from splitting one element's accumulation chain.
//
// The float64 kernels honor that contract even in the vector path: the
// AVX2 panel kernel broadcasts a[i][x] against one 64-byte line of the
// transposed right-hand side and issues separate multiply and add
// instructions, so each lane performs the identical round(mul) →
// round(add) sequence of the scalar loop. The float32 kernels instead
// use FMA (one rounding per step); they remain deterministic — a fixed
// instruction sequence per element — but are only ULP-equivalent, not
// bit-equal, to the float32 scalar fallback. The f32-vs-f64 differential
// suite in internal/predictors bounds that divergence.

// checkGramBounds validates a Gram block request and returns the shared
// row length. ok=false flags an empty (but valid) block.
func checkGramBounds[F Float](v [][]F, lo, hi, jlo, jhi int, out []F, stride int) (k int, ok bool) {
	n := len(v)
	if lo < 0 || hi > n || jlo < 0 || jhi > n {
		panic("linalg: gram panel bounds out of range")
	}
	if hi <= lo || jhi <= jlo {
		return 0, false
	}
	k = len(v[lo])
	if len(out) < (hi-lo-1)*stride+jhi {
		panic("linalg: gram panel output too short")
	}
	for j := jlo; j < jhi; j++ {
		if len(v[j]) != k {
			panic("linalg: gram rows of unequal length")
		}
	}
	for i := lo; i < hi; i++ {
		if len(v[i]) != k {
			panic("linalg: gram rows of unequal length")
		}
	}
	return k, true
}

// gramBlockScalar is the portable register-blocked kernel behind
// GramBlockT: out[(i−lo)·stride + j] = ⟨v[i], v[j]⟩ for i in [lo, hi),
// j in [jlo, jhi), rows of length k; bounds are already validated.
func gramBlockScalar[F Float](v [][]F, k, lo, hi, jlo, jhi int, out []F, stride int) {
	i := lo
	// 4-row register block: one pass over columns j streams v[j] once
	// against four L1-resident left-hand rows, giving four independent
	// single-chain accumulations per column.
	for ; i+4 <= hi; i += 4 {
		v0 := v[i][:k]
		v1 := v[i+1][:k]
		v2 := v[i+2][:k]
		v3 := v[i+3][:k]
		o0 := out[(i-lo)*stride : (i-lo)*stride+jhi]
		o1 := out[(i-lo+1)*stride : (i-lo+1)*stride+jhi]
		o2 := out[(i-lo+2)*stride : (i-lo+2)*stride+jhi]
		o3 := out[(i-lo+3)*stride : (i-lo+3)*stride+jhi]
		for j := jlo; j < jhi; j++ {
			vj := v[j][:k]
			var d0, d1, d2, d3 F
			for x := 0; x < k; x++ {
				c := vj[x]
				d0 += v0[x] * c
				d1 += v1[x] * c
				d2 += v2[x] * c
				d3 += v3[x] * c
			}
			o0[j] = d0
			o1[j] = d1
			o2[j] = d2
			o3[j] = d3
		}
	}
	// Ragged tail: fewer than four rows left.
	for ; i < hi; i++ {
		vi := v[i][:k]
		oi := out[(i-lo)*stride : (i-lo)*stride+jhi]
		for j := jlo; j < jhi; j++ {
			vj := v[j][:k]
			var d F
			for x := 0; x < k; x++ {
				d += vi[x] * vj[x]
			}
			oi[j] = d
		}
	}
}

// GramBlockT computes the rectangular Gram block
// out[(i−lo)·stride + j] = ⟨v[i], v[j]⟩ for i in [lo, hi), j in
// [jlo, jhi), given a caller-maintained transposed copy of the full row
// set in panels (see TransposeInto). All rows of v must share one
// length. The panels make the column dimension the contiguous one, which
// lets the amd64 SIMD kernels broadcast a[i][x] against one cache line
// of adjacent output columns — vector lanes span *independent output
// elements*, so each element keeps the scalar loop's single forward
// accumulation chain and the float64 result stays bit-identical to the
// naive per-pair loop. The kernels fill whole panels; the portable
// register-blocked kernel fills the columns before the first panel
// boundary at or after jlo, those of a panel that jhi cuts, and the
// partial last panel. Rows v[lo..hi) must additionally lie at a constant
// stride in one backing array (the layout the predictors' pooled scratch
// carves); when they don't, or on platforms without the kernels,
// GramBlockT runs the portable kernel on every column.
func GramBlockT[F Float](v [][]F, vt []F, lo, hi, jlo, jhi int, out []F, stride int) {
	k, ok := checkGramBounds(v, lo, hi, jlo, jhi, out, stride)
	if !ok {
		return
	}
	if len(vt) < k*len(v) {
		panic("linalg: gram transpose buffer too short")
	}
	plo, phi := jhi, jhi
	if k > 0 {
		plo, phi = gramPanels(v, vt, lo, hi, jlo, jhi, out, stride)
	}
	if jlo < plo {
		gramBlockScalar(v, k, lo, hi, jlo, plo, out, stride)
	}
	if phi < jhi {
		gramBlockScalar(v, k, lo, hi, phi, jhi, out, stride)
	}
}

// panelWidth is the column width of one transpose panel: the elements
// of F in one 64-byte cache line, 8 at float64 and 16 at float32.
func panelWidth[F Float]() int {
	var z F
	return 64 / int(unsafe.Sizeof(z))
}

// TransposeInto fills dst with the n-row, k-column row set v transposed
// in panels of w = panelWidth rows (8 at float64, 16 at float32): panel
// p holds rows [p·w, p·w+w) as its own k×w transpose,
//
//	dst[(j/w)·w·k + x·w + j%w] = v[j][x],
//
// and the last n mod w rows form one k×r panel with r = n mod w, so dst
// holds exactly n·k elements and every one of them is defined. dst must
// hold at least n·k elements. One step x of a panel is one contiguous
// 64-byte line, which GramBlockT's kernels load once for a block of
// rows; a panel holds k lines, so at k² = 64 it is 4 KiB and its fill
// stays L1-resident. It is the one-time setup cost of the whole
// pairwise pass.
func TransposeInto[F Float](v [][]F, dst []F) {
	n := len(v)
	if n == 0 {
		return
	}
	k := len(v[0])
	if len(dst) < n*k {
		panic("linalg: TransposeInto destination too short")
	}
	for _, row := range v {
		if len(row) != k {
			panic("linalg: TransposeInto rows of unequal length")
		}
	}
	w := panelWidth[F]()
	for j0 := 0; j0 < n; j0 += w {
		r := min(w, n-j0)
		panel := dst[j0*k : (j0+r)*k]
		for c, row := range v[j0 : j0+r] {
			for x, e := range row {
				panel[x*r+c] = e
			}
		}
	}
}

// MirrorLowerUpper copies the strict lower triangle of the n×n row-major
// matrix m onto the upper triangle, completing a symmetric fill. The copy
// runs over square tiles (a blocked transpose) so the strided source
// reads stay cache-resident at large n.
func MirrorLowerUpper[F Float](m []F, n int) {
	if len(m) < n*n {
		panic("linalg: MirrorLowerUpper matrix too short")
	}
	const tile = 32
	for i0 := 0; i0 < n; i0 += tile {
		i1 := i0 + tile
		if i1 > n {
			i1 = n
		}
		// Destination tiles right of the diagonal: rows [i0,i1),
		// columns [j0,j1) with j0 ≥ i0, sourced from the transposed
		// lower-triangle tile.
		for j0 := i0; j0 < n; j0 += tile {
			j1 := j0 + tile
			if j1 > n {
				j1 = n
			}
			for i := i0; i < i1; i++ {
				jStart := j0
				if jStart <= i {
					jStart = i + 1
				}
				row := m[i*n : (i+1)*n]
				for j := jStart; j < j1; j++ {
					row[j] = m[j*n+i]
				}
			}
		}
	}
}

// SecondMomentLower accumulates the lower triangle (row-major, diagonal
// included) of Σ_i scale·v[i]·v[i]ᵀ into out, which must have length
// k·(k+1)/2 for row length k and is overwritten. The accumulation order
// is one serial loop — i ascending, each term formed as
// (v[i][p]·scale)·v[i][q] — so the result is independent of caller
// parallelism. FusedBlockMoments performs the same accumulation (same
// order, same float64 arithmetic) inside the standardization pass; this
// standalone routine remains as the reference the fused pass is tested
// against.
func SecondMomentLower(v [][]float64, scale float64, out []float64) {
	if len(v) == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	k := len(v[0])
	if len(out) != k*(k+1)/2 {
		panic("linalg: SecondMomentLower output length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	for _, vi := range v {
		if len(vi) != k {
			panic("linalg: SecondMomentLower rows of unequal length")
		}
		idx := 0
		for p := 0; p < k; p++ {
			xp := vi[p] * scale
			row := out[idx : idx+p+1]
			for q := 0; q <= p; q++ {
				row[q] += xp * vi[q]
			}
			idx += p + 1
		}
	}
}
