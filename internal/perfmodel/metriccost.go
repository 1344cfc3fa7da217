package perfmodel

// metriccost.go implements the paper's §IV-C runtime complexity model for
// the error-bound-agnostic metric computation,
//
//	O( p²/(k·n_c) + p·k/(n_c·γ) + k⁶/γ ),
//
// where p is the buffer edge, k the tile edge, n_c the CPU scaling factor
// and γ the accelerator scaling factor. The three terms are the pairwise
// tile-norm pass, the per-tile outer products, and the k²×k² eigensolve of
// the CovSVD-trunc metric. In this pure-Go reproduction γ models the GPU
// the paper offloads to: γ=1 describes this library's CPU execution, and
// larger γ lets the §V speedup formulas explore what accelerated
// predictors would buy.

// MetricCostModel holds the calibrated constants of the three terms (in
// seconds per unit work).
type MetricCostModel struct {
	// CPairs scales the p²/(k·n_c) pairwise term.
	CPairs float64
	// COuter scales the p·k/(n_c·γ) outer-product term.
	COuter float64
	// CEigen scales the k⁶/γ eigendecomposition term.
	CEigen float64
}

// Cost returns the modeled runtime for a p×p buffer with tile edge k on
// nc CPU units and accelerator factor gamma (≥ 1).
func (m MetricCostModel) Cost(p, k int, nc, gamma float64) float64 {
	if nc < 1 {
		nc = 1
	}
	if gamma < 1 {
		gamma = 1
	}
	fp, fk := float64(p), float64(k)
	return m.CPairs*fp*fp*fp*fp/(fk*fk*fk*fk*nc) + // B² pairs × k² work = p⁴/k²
		m.COuter*fp*fp*fk*fk/(nc*gamma) + // B tiles × k⁴ outer work
		m.CEigen*fk*fk*fk*fk*fk*fk/gamma // (k²)³ eigensolve
}

// FitMetricCost calibrates the model from measured (p, k, seconds)
// samples by non-negative least squares on the three basis terms (solved
// by projected coordinate descent — three variables, so exact enough).
func FitMetricCost(ps, ks []int, secs []float64, nc, gamma float64) MetricCostModel {
	n := len(secs)
	basis := make([][3]float64, n)
	for i := 0; i < n; i++ {
		fp, fk := float64(ps[i]), float64(ks[i])
		basis[i] = [3]float64{
			fp * fp * fp * fp / (fk * fk * fk * fk * nc),
			fp * fp * fk * fk / (nc * gamma),
			fk * fk * fk * fk * fk * fk / gamma,
		}
	}
	var c [3]float64
	for iter := 0; iter < 200; iter++ {
		for j := 0; j < 3; j++ {
			var num, den float64
			for i := 0; i < n; i++ {
				resid := secs[i]
				for l := 0; l < 3; l++ {
					if l != j {
						resid -= c[l] * basis[i][l]
					}
				}
				num += resid * basis[i][j]
				den += basis[i][j] * basis[i][j]
			}
			if den > 0 {
				c[j] = num / den
			}
			if c[j] < 0 {
				c[j] = 0
			}
		}
	}
	return MetricCostModel{CPairs: c[0], COuter: c[1], CEigen: c[2]}
}
