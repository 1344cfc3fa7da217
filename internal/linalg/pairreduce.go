package linalg

import "math"

// pairreduce.go holds the kernels of the predictors' pairwise SD/SC
// reduction. Every pair of blocks (i, j) contributes three terms to the
// sums of both blocks:
//
//	ds  = |posR[i]−posR[j]| + |posC[i]−posC[j]|          (Manhattan distance)
//	de  = sqrt(max(0, norm2[i]+norm2[j]−2·G[i][j]))        (Euclidean distance)
//	rho = clamp((G[i][j]/k² − mean[i]·mean[j]) / (sd[i]·sd[j]), −1, 1)
//
// summed per block as Σ ds, Σ ds·de and Σ ds·|rho| over its partners.
//
// The float64 path (PairSweepF64) is bit-identical to a serial fold of
// each full Gram row in j order, which is the reference it is tested
// against. The float32 path (PairReduceF32) has no bitwise obligation:
// it multiplies by a precomputed 1/sd instead of dividing and vectorizes
// eight pairs at a time on amd64.

// PairSweepF64 computes, for every block i of the B = len(posR) blocks,
// the three pairwise sums over all partners j ≠ i:
//
//	sumDs[i]   = Σ ds(i,j)
//	sumDsDe[i] = Σ ds(i,j)·de(i,j)
//	sumDsV[i]  = Σ ds(i,j)·|rho(i,j)|
//
// G[i][j] = ⟨v_i, v_j⟩ is read from the strict lower triangle of gram,
// the B×B row-major float64 Gram matrix; entries on and above the
// diagonal are never read. rho is 0 unless sd[i] > 0 and sd[j] > 0,
// and k2 is the element count of one block, which divides each dot
// product in the covariance. The three sum slices are overwritten.
//
// Every sum carries the bits of the serial fold j = 0…B−1 over the full
// symmetric row i, although the sweep visits each unordered pair once:
//
//   - Each term is bitwise symmetric in (i, j). |a−b|, (n2ᵢ+n2ⱼ)−2G,
//     G·(1/k²)−mᵢmⱼ and sdᵢ·sdⱼ all commute, and G has one copy per pair.
//   - The sweep runs over rows i = 0…B−1 in order. Row i folds its own
//     terms j = 0…i−1 serially and adds each one to partner j's sum with
//     one add. So block i's sum receives partners 0…i−1 while the sweep
//     is at row i, and then i+1…B−1 from the later rows, in that order.
//
// On amd64 with AVX2, four pairs of a row run per step. The kernel
// issues a separate multiply, add and subtract per operation and the
// correctly rounded VDIVPD and VSQRTPD, with no FMA and no reciprocal,
// so each lane rounds as the scalar statement does. The scalar sweep,
// in the same order, covers the ragged row tails, other CPUs and
// architectures, and a k2 that is not a power of two: the kernel
// multiplies by 1/k², which rounds like the division only when that
// reciprocal is exact.
//
// The sweep runs on the calling goroutine; the partner sums make its
// row order part of the result.
func PairSweepF64(gram, posR, posC, norm2, mean, sd []float64, k2 int, sumDs, sumDsDe, sumDsV []float64) {
	pairSweepF64(gram, posR, posC, norm2, mean, sd, k2, sumDs, sumDsDe, sumDsV, SIMDEnabled())
}

// pairSweepF64 is PairSweepF64 with the vector kernel optional, so the
// tests can hold the kernel to the scalar sweep on one machine.
func pairSweepF64(gram, posR, posC, norm2, mean, sd []float64, k2 int, sumDs, sumDsDe, sumDsV []float64, vec bool) {
	b := len(posR)
	checkPairInputs("PairSweepF64", b, posC, norm2, mean, sd, sumDs, sumDsDe, sumDsV)
	if k2 < 1 {
		panic("linalg: PairSweepF64 block size k2 must be positive")
	}
	if len(gram) < b*b {
		panic("linalg: PairSweepF64 Gram matrix shorter than B×B")
	}
	fk2 := float64(k2)
	var invK2 float64
	if k2&(k2-1) == 0 {
		// k² is a power of two, so multiplying by the exact reciprocal
		// rounds identically to dividing by k².
		invK2 = 1 / fk2
	}
	vec = vec && invK2 != 0
	for i := 0; i < b; i++ {
		row := gram[i*b : i*b+i]
		ri, ci, n2i, mi, sdi := posR[i], posC[i], norm2[i], mean[i], sd[i]
		j := 0
		var s [3]float64
		if vec {
			j, s = pairSweepRowF64(row, posR, posC, norm2, mean, sd, sumDs, sumDsDe, sumDsV, ri, ci, n2i, mi, sdi, invK2)
		}
		for ; j < i; j++ {
			dot := row[j]
			ds := math.Abs(ri-posR[j]) + math.Abs(ci-posC[j])
			de2 := n2i + norm2[j] - 2*dot
			if de2 < 0 {
				de2 = 0
			}
			de := math.Sqrt(de2)
			var rho float64
			if sdi > 0 && sd[j] > 0 {
				var cov float64
				if invK2 != 0 {
					cov = dot*invK2 - mi*mean[j]
				} else {
					cov = dot/fk2 - mi*mean[j]
				}
				rho = cov / (sdi * sd[j])
				if rho > 1 {
					rho = 1
				} else if rho < -1 {
					rho = -1
				}
			}
			dsDe, dsV := ds*de, ds*math.Abs(rho)
			s[0] += ds
			s[1] += dsDe
			s[2] += dsV
			sumDs[j] += ds
			sumDsDe[j] += dsDe
			sumDsV[j] += dsV
		}
		sumDs[i], sumDsDe[i], sumDsV[i] = s[0], s[1], s[2]
	}
}

// PairReduceF32 folds row i of the float32 Gram matrix into the three
// pairwise sums of the SD/SC predictors:
//
//	ds_j  = |posR[i]−posR[j]| + |posC[i]−posC[j]|   (Manhattan distance)
//	de_j  = sqrt(max(0, norm2[i]+norm2[j]−2·row[j])) (Euclidean distance)
//	rho_j = clamp(|(row[j]·invK2 − mean[i]·mean[j]) · invSd[i]·invSd[j]|, 0, 1)
//
// returning (Σ ds, Σ ds·de, Σ ds·rho) over all j including j == i, whose
// ds of zero makes it a no-op in every sum. invSd must hold 1/sd with
// exact zeros where sd == 0, which reproduces the f64 path's "both sds
// positive" gate: a zero-variance block contributes rho = 0. posR, posC,
// norm2, mean and invSd must each cover row; a shorter one panics.
//
// Determinism: the AVX2 kernel accumulates in a fixed lane structure
// with a fixed horizontal fold, and the scalar tail continues from those
// partials in index order; the scalar fallback is a plain forward loop.
// Either way the result is a deterministic function of the inputs for a
// given binary and CPU — worker count and chunking never affect it.
func PairReduceF32(row, posR, posC, norm2, mean, invSd []float32, i int, invK2 float32) (sumDs, sumDsDe, sumDsV float64) {
	// The kernel reads every input at the row's length through raw
	// pointers, so the bounds are checked once here.
	checkPairInputs("PairReduceF32", len(row), posR, posC, norm2, mean, invSd)
	c := pairConsts32{
		ri:     posR[i],
		ci:     posC[i],
		n2i:    norm2[i],
		mi:     mean[i],
		invSdI: invSd[i],
		invK2:  invK2,
	}
	j, sums := pairReduceVecF32(row, posR, posC, norm2, mean, invSd, c)
	sDs, sDsDe, sDsV := sums[0], sums[1], sums[2]
	for ; j < len(row); j++ {
		ds := abs32(c.ri-posR[j]) + abs32(c.ci-posC[j])
		dot := row[j]
		de2 := (c.n2i + norm2[j]) - 2*dot
		if de2 < 0 {
			de2 = 0
		}
		de := float32(math.Sqrt(float64(de2)))
		rho := (dot*invK2 - c.mi*mean[j]) * c.invSdI * invSd[j]
		rho = abs32(rho)
		if rho > 1 {
			rho = 1
		}
		sDs += ds
		sDsDe += ds * de
		sDsV += ds * rho
	}
	return float64(sDs), float64(sDsDe), float64(sDsV)
}

// checkPairInputs panics unless every per-block slice holds at least n
// elements, naming the kernel that was called.
func checkPairInputs[F Float](kernel string, n int, blocks ...[]F) {
	for _, s := range blocks {
		if len(s) < n {
			panic("linalg: " + kernel + " per-block input shorter than the block count")
		}
	}
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
