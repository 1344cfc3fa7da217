package linalg

import "math"

// fused.go is the tentpole of the single-traversal predictor pass: the
// standardization of the B×k² block matrix, the per-block moments
// (mean, standard deviation, squared norm) that SD/SC consume, and the
// second-moment lower triangle Σ = scale·Σ_i v[i]·v[i]ᵀ that CG/CovSVD
// consume were previously three separate walks over the 2 MiB (f64 at
// 512²/k=8: 4096 blocks × 64 × 8 B) block matrix. FusedBlockMoments
// performs all of them in one pass while each block row is L1-resident.

const (
	// momentGroup is how many rows the second-moment update folds into
	// one pass over the triangle.
	momentGroup = 4
	// momentScratch is the stack row buffer of FusedBlockMoments in
	// float64 elements: momentGroup rows of up to 256 (block edge 16).
	// Longer rows go fewer at a time, and rows longer than the whole
	// buffer get a heap row.
	momentScratch = momentGroup * 256
)

// FusedBlockMoments standardizes every row of v in place with the global
// moments (gm, gsd) — v[i][j] ← F((v[i][j]−gm)/gsd) — and, in the same
// traversal, fills the per-row statistics and the scaled second-moment
// lower triangle:
//
//	mean[i]  = (1/k)·Σ_j v[i][j]          (after standardization)
//	sd[i]    = sqrt(max(0, Σv²/k − mean²))
//	norm2[i] = Σ_j v[i][j]²
//	lower    = row-major lower triangle (diagonal included, length
//	           k·(k+1)/2) of Σ_i scale·v[i]·v[i]ᵀ, overwritten
//
// All accumulators are float64 regardless of F; for F = float32 each
// element is widened exactly before accumulation, so the moment sums
// carry no accumulated narrowing drift — only the stored standardized
// values are rounded to float32.
//
// Bit-identity contract (F = float64): every accumulation chain here is
// the exact sequence of the unfused reference — per-row forward s/s²
// sums (stats.MeanStd's order), norm2 sharing the s² chain, and the
// triangle accumulated in SecondMomentLower's order (i ascending, terms
// formed as (v[i][p]·scale)·v[i][q]). Interleaving the rows of the three
// walks does not reorder any individual chain, so the fused pass is
// bit-identical to the separate passes at every worker count.
//
// The standardization loop widens each row into a stack buffer; every
// momentGroup rows, the triangle takes their rank-1 updates in one pass
// (addSecondMoments), by an AVX2 kernel where the CPU has one. Rows
// need not share a backing array.
func FusedBlockMoments[F Float](v [][]F, gm, gsd, scale float64, mean, sd, norm2, lower []float64) {
	fusedBlockMoments(v, gm, gsd, scale, mean, sd, norm2, lower, true)
}

// fusedBlockMoments is FusedBlockMoments with the AVX2 second-moment
// kernel allowed (kernel) or not; the tests hold the two to each other.
func fusedBlockMoments[F Float](v [][]F, gm, gsd, scale float64, mean, sd, norm2, lower []float64, kernel bool) {
	for i := range lower {
		lower[i] = 0
	}
	if len(v) == 0 {
		return
	}
	k := len(v[0])
	if len(lower) != k*(k+1)/2 {
		panic("linalg: FusedBlockMoments lower-triangle length mismatch")
	}
	if len(mean) < len(v) || len(sd) < len(v) || len(norm2) < len(v) {
		panic("linalg: FusedBlockMoments moment buffers too short")
	}
	var stack [momentScratch]float64
	w, group := stack[:], min(momentGroup, momentScratch/max(k, 1))
	if group == 0 {
		w, group = make([]float64, k), 1
	}
	fk := float64(k)
	g := 0
	for bi, vec := range v {
		if len(vec) != k {
			panic("linalg: FusedBlockMoments rows of unequal length")
		}
		row := w[g*k : (g+1)*k]
		var s, s2 float64
		for j, raw := range vec {
			x := (float64(raw) - gm) / gsd
			xf := F(x)
			vec[j] = xf
			xs := float64(xf)
			row[j] = xs
			s += xs
			s2 += xs * xs
		}
		m := s / fk
		va := s2/fk - m*m
		if va < 0 {
			va = 0
		}
		mean[bi] = m
		sd[bi] = math.Sqrt(va)
		norm2[bi] = s2
		if g++; g == group || bi == len(v)-1 {
			addSecondMoments(w[:g*k], g, k, scale, lower, kernel)
			g = 0
		}
	}
}

// addSecondMoments adds scale·w_r·w_rᵀ of the n rows w_r held at stride
// k in w to the lower triangle, rows in order: by the AVX2 kernel when
// kernel is set and the CPU has it, else by the scalar loop, which is
// SecondMomentLower's. Both form each term as (w_r[p]·scale)·w_r[q] and
// add the rows' terms to an entry in row order, so they agree bit for
// bit.
func addSecondMoments(w []float64, n, k int, scale float64, lower []float64, kernel bool) {
	if kernel && secondMomentRowsF64(w, n, k, scale, lower) {
		return
	}
	for r := 0; r < n; r++ {
		vec := w[r*k : (r+1)*k]
		idx := 0
		for p := 0; p < k; p++ {
			xp := vec[p] * scale
			row := lower[idx : idx+p+1]
			for q := 0; q <= p; q++ {
				row[q] += xp * vec[q]
			}
			idx += p + 1
		}
	}
}
