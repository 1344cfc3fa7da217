//go:build amd64

package linalg

import "unsafe"

// simd_amd64.go dispatches the hot kernels to the AVX2 routines in
// simd_amd64.s when the CPU (and OS) support them. Detection is done
// once at init via raw CPUID/XGETBV — no build tags or cgo, so a binary
// built anywhere runs anywhere and simply falls back to the portable
// scalar kernels on older hardware.

// haveAVX2FMA gates every SIMD kernel: AVX2 for the 256-bit integer/FP
// lane operations, FMA for the float32 kernels, and OS-enabled YMM state
// (OSXSAVE + XCR0) so the registers survive context switches.
var haveAVX2FMA = detectAVX2FMA()

// SIMDEnabled reports whether the AVX2 kernels are active on this
// process (exported for benchmarks and the differential tests, which
// document which code path their ULP bounds were measured against).
func SIMDEnabled() bool { return haveAVX2FMA }

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state.
	eax, _ := xgetbv0()
	if eax&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// cpuid and xgetbv0 are implemented in simd_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// rowsStrided reports whether rows [lo, hi) of v lie at a constant
// stride of k elements from v[lo] in one backing array — the layout the
// predictors' pooled scratch carves — so the assembly kernels can
// address row r as base + r·k·sizeof(F).
func rowsStrided[F Float](v [][]F, lo, hi, k int) bool {
	var z F
	es := unsafe.Sizeof(z)
	base := unsafe.Pointer(unsafe.SliceData(v[lo]))
	for i := lo + 1; i < hi; i++ {
		if unsafe.Pointer(unsafe.SliceData(v[i])) != unsafe.Add(base, uintptr(i-lo)*uintptr(k)*es) {
			return false
		}
	}
	return true
}

// gramTransF64 runs the AVX2 float64 Gram kernel over columns
// [jlo, jlo+njv) where njv is the widest multiple of 4 that fits, and
// returns the first column it did NOT compute (the caller finishes the
// ragged tail with the scalar kernel). The kernel issues separate
// VMULPD/VADDPD per element — no FMA — so each output element performs
// the scalar loop's exact round(mul) → round(add) sequence and the
// result is bit-identical to GramBlock.
func gramTransF64(v [][]float64, vt []float64, lo, hi, jlo, jhi int, out []float64, stride int) int {
	if !haveAVX2FMA {
		return jlo
	}
	k := len(v[lo])
	njv := (jhi - jlo) &^ 3
	if k == 0 || njv == 0 || !rowsStrided(v, lo, hi, k) {
		return jlo
	}
	gramTransKernelF64(
		unsafe.Pointer(unsafe.SliceData(v[lo])),
		unsafe.Pointer(&vt[jlo]),
		unsafe.Pointer(&out[jlo]),
		uint64(k), uint64(hi-lo), uint64(njv),
		uint64(k), uint64(len(v)), uint64(stride))
	return jlo + njv
}

// gramTransF32 is the float32 variant: 8 lanes with FMA. Deterministic
// (fixed instruction sequence per element) but only ULP-equivalent to
// the float32 scalar fallback, since FMA rounds once per step.
func gramTransF32(v [][]float32, vt []float32, lo, hi, jlo, jhi int, out []float32, stride int) int {
	if !haveAVX2FMA {
		return jlo
	}
	k := len(v[lo])
	njv := (jhi - jlo) &^ 7
	if k == 0 || njv == 0 || !rowsStrided(v, lo, hi, k) {
		return jlo
	}
	gramTransKernelF32(
		unsafe.Pointer(unsafe.SliceData(v[lo])),
		unsafe.Pointer(&vt[jlo]),
		unsafe.Pointer(&out[jlo]),
		uint64(k), uint64(hi-lo), uint64(njv),
		uint64(k), uint64(len(v)), uint64(stride))
	return jlo + njv
}

// gramTransKernelF64 computes out[i·ldo+j] = Σ_x a[i·lda+x]·bt[x·ldb+j]
// for i in [0,ni), j in [0,nj) with nj a positive multiple of 4 and
// k ≥ 1; strides are in elements. Implemented in simd_amd64.s.
//
//go:noescape
func gramTransKernelF64(a, bt, out unsafe.Pointer, k, ni, nj, lda, ldb, ldo uint64)

// gramTransKernelF32 is the 8-lane FMA float32 variant; nj must be a
// positive multiple of 8.
//
//go:noescape
func gramTransKernelF32(a, bt, out unsafe.Pointer, k, ni, nj, lda, ldb, ldo uint64)

// pairConsts32 carries the left-block constants of one pairwise-reduce
// row; the layout is mirrored by the VBROADCASTSS offsets in the
// assembly, so the field order is load-bearing.
type pairConsts32 struct {
	ri, ci, n2i, mi, invSdI, invK2 float32
}

// pairReduceKernelF32 accumulates the three pairwise sums over
// j in [0, n) with n a positive multiple of 8, writing the lane-reduced
// partial sums into sums. Implemented in simd_amd64.s.
//
//go:noescape
func pairReduceKernelF32(row, posR, posC, norm2, mean, invSd unsafe.Pointer, n uint64, consts *pairConsts32, sums *[3]float32)

// pairReduceVecF32 runs the AVX2 pairwise reduce over the widest
// multiple-of-8 prefix and returns how many elements it consumed plus
// the three partial sums; the caller finishes the tail in scalar code.
func pairReduceVecF32(row, posR, posC, norm2, mean, invSd []float32, c pairConsts32) (n int, sums [3]float32) {
	nv := len(row) &^ 7
	if !haveAVX2FMA || nv == 0 {
		return 0, sums
	}
	pairReduceKernelF32(
		unsafe.Pointer(unsafe.SliceData(row)),
		unsafe.Pointer(unsafe.SliceData(posR)),
		unsafe.Pointer(unsafe.SliceData(posC)),
		unsafe.Pointer(unsafe.SliceData(norm2)),
		unsafe.Pointer(unsafe.SliceData(mean)),
		unsafe.Pointer(unsafe.SliceData(invSd)),
		uint64(nv), &c, &sums)
	return nv, sums
}

// pairConsts64 carries the row-i constants of one pair-sweep row; the
// layout is mirrored by the offsets in the assembly, so the field order
// is load-bearing.
type pairConsts64 struct {
	ri, ci, n2i, mi, sdi, invK2 float64
	// gateI is all ones in every lane when sdi > 0: the row's half of
	// the "both sds positive" correlation gate, as a 4-lane mask.
	gateI [4]uint64
}

// pairSweepRowF64 runs the AVX2 pair-sweep kernel over partners
// j in [0, len(row)&^3) of one row (see PairSweepF64): it adds each
// pair's terms to the partner sums and returns how many partners it
// consumed plus row i's serial partial sums, which the caller's scalar
// loop continues. invK2 must be the exact reciprocal of a power-of-two
// k². The caller has checked every slice against the block count.
func pairSweepRowF64(row, posR, posC, norm2, mean, sd, sumDs, sumDsDe, sumDsV []float64, ri, ci, n2i, mi, sdi, invK2 float64) (n int, sums [3]float64) {
	n = len(row) &^ 3
	if !haveAVX2FMA || n == 0 {
		return 0, sums
	}
	c := pairConsts64{ri: ri, ci: ci, n2i: n2i, mi: mi, sdi: sdi, invK2: invK2}
	if sdi > 0 {
		c.gateI = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	}
	pairSweepKernelF64(
		unsafe.Pointer(unsafe.SliceData(row)),
		unsafe.Pointer(unsafe.SliceData(posR)),
		unsafe.Pointer(unsafe.SliceData(posC)),
		unsafe.Pointer(unsafe.SliceData(norm2)),
		unsafe.Pointer(unsafe.SliceData(mean)),
		unsafe.Pointer(unsafe.SliceData(sd)),
		unsafe.Pointer(unsafe.SliceData(sumDs)),
		unsafe.Pointer(unsafe.SliceData(sumDsDe)),
		unsafe.Pointer(unsafe.SliceData(sumDsV)),
		uint64(n), &c, &sums)
	return n, sums
}

// pairSweepKernelF64 folds partners j in [0, n) of one pair-sweep row,
// n a positive multiple of 4: row i's three sums serially in j order
// into sums, and each term into the partner sums accDs[j], accDsDe[j],
// accDsV[j]. Implemented in simd_amd64.s.
//
//go:noescape
func pairSweepKernelF64(row, posR, posC, norm2, mean, sd, accDs, accDsDe, accDsV unsafe.Pointer, n uint64, consts *pairConsts64, sums *[3]float64)

// rotateRowsF64 runs the AVX2 Jacobi row update of rotate over
// i in [0, n&^3) of the n×n row-major matrix data and returns the first
// i it did not update (the caller finishes the ragged tail with the
// scalar loop). Like the f64 Gram kernel it issues a separate multiply
// then subtract/add per element — no FMA — so every updated element is
// bit-identical to the scalar statement.
func rotateRowsF64(data []float64, n, p, q int, c, s float64) int {
	nv := n &^ 3
	if !haveAVX2FMA || nv == 0 {
		return 0
	}
	_ = data[n*n-1] // one bounds check: every kernel load and store is below n²
	rotateKernelF64(
		unsafe.Pointer(&data[p*n]),
		unsafe.Pointer(&data[q*n]),
		unsafe.Pointer(&data[p]),
		unsafe.Pointer(&data[q]),
		uint64(nv), uint64(n), c, s)
	return nv
}

// rotateKernelF64 updates rowP[i], rowQ[i] and the mirrored column
// entries colP[i·ld], colQ[i·ld] for i in [0,n), n a positive multiple
// of 4. Implemented in simd_amd64.s.
//
//go:noescape
func rotateKernelF64(rowP, rowQ, colP, colQ unsafe.Pointer, n, ld uint64, c, s float64)

// secondMomentRowsF64 adds scale·w_r·w_rᵀ of the n rows w_r held at
// stride k in w to the lower triangle, rows in order, with the AVX2
// kernel, and reports whether it ran. Every entry takes the scalar
// loop's chain (see FusedBlockMoments), so the caller's scalar loop is
// the fallback, not a different result.
func secondMomentRowsF64(w []float64, n, k int, scale float64, lower []float64) bool {
	if !haveAVX2FMA || n == 0 || k == 0 {
		return false
	}
	_ = w[n*k-1]           // every kernel load of w is below n·k
	_ = lower[k*(k+1)/2-1] // and every load and store of lower below k(k+1)/2
	secondMomentKernelF64(unsafe.Pointer(unsafe.SliceData(w)), uint64(n), uint64(k), scale, unsafe.Pointer(unsafe.SliceData(lower)))
	return true
}

// secondMomentKernelF64 adds scale·w_r·w_rᵀ of the n ≥ 1 rows w_r =
// w[r·k:(r+1)·k] to the row-major lower triangle at lower, k ≥ 1.
// Implemented in simd_amd64.s.
//
//go:noescape
func secondMomentKernelF64(w unsafe.Pointer, n, k uint64, scale float64, lower unsafe.Pointer)
