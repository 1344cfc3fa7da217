//go:build !amd64

package linalg

// Portable stubs: without the amd64 kernels every dispatch returns "not
// handled" and the callers run the scalar fallbacks.

// haveAVX2FMA is never set off amd64; it exists for the tests, which
// run every kernel set the process has.
var haveAVX2FMA = false

// SIMDEnabled reports whether the AVX2 kernels are active (never, off
// amd64).
func SIMDEnabled() bool { return false }

func gramPanels[F Float](v [][]F, vt []F, lo, hi, jlo, jhi int, out []F, stride int) (plo, phi int) {
	return jhi, jhi
}

type pairConsts32 struct {
	ri, ci, n2i, mi, invSdI, invK2 float32
}

func pairReduceVecF32(row, posR, posC, norm2, mean, invSd []float32, c pairConsts32) (n int, sums [3]float32) {
	return 0, sums
}

func pairSweepRowF64(row, posR, posC, norm2, mean, sd, sumDs, sumDsDe, sumDsV []float64, ri, ci, n2i, mi, sdi, invK2 float64) (n int, sums [3]float64) {
	return 0, sums
}

func rotateRowsF64(data []float64, n, p, q int, c, s float64) int {
	return 0
}

func secondMomentRowsF64(w []float64, n, k int, scale float64, lower []float64) bool {
	return false
}
