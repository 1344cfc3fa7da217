//go:build amd64

package linalg

import "unsafe"

// simd_amd64.go dispatches the hot kernels to the AVX2 routines in
// simd_amd64.s when the CPU (and OS) support them. Detection is done
// once at init via raw CPUID/XGETBV — no build tags or cgo, so a binary
// built anywhere runs anywhere and simply falls back to the portable
// scalar kernels on older hardware.

// haveAVX2FMA gates every SIMD kernel (see decideAVX2FMA). Only tests
// clear it, to hold the scalar fallbacks to the same references.
var haveAVX2FMA = detectAVX2FMA()

// SIMDEnabled reports whether the AVX2 kernels are active on this
// process (exported for benchmarks and the differential tests, which
// document which code path their ULP bounds were measured against).
func SIMDEnabled() bool { return haveAVX2FMA }

// detectAVX2FMA reads the CPUID and XCR0 words that decideAVX2FMA
// takes. XGETBV faults unless the OS has set OSXSAVE, and leaf 7 is
// defined only up to the highest leaf the CPU reports, so each word is
// read only where it exists and is zero otherwise.
func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxID >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv0()
	}
	return decideAVX2FMA(maxID, ecx1, ebx7, xcr0)
}

const cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX, the OS enabled XGETBV

// decideAVX2FMA reports from CPUID.0:EAX (maxID), CPUID.1:ECX,
// CPUID.(7,0):EBX and XCR0 whether the AVX2 kernels may run: they need
// AVX2 for the 256-bit lane operations, FMA for the float32 kernels,
// and OSXSAVE with XCR0 bits 1–2 so the OS saves the YMM registers
// across context switches.
func decideAVX2FMA(maxID, ecx1, ebx7, xcr0 uint32) bool {
	const (
		fma    = 1 << 12 // CPUID.1:ECX
		avx    = 1 << 28 // CPUID.1:ECX
		avx2   = 1 << 5  // CPUID.(7,0):EBX
		xcrYMM = 1<<1 | 1<<2
		ecxAVX = fma | cpuidOSXSAVE | avx
	)
	return maxID >= 7 && ecx1&ecxAVX == ecxAVX && xcr0&xcrYMM == xcrYMM && ebx7&avx2 != 0
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

// gramPanels runs the AVX2 Gram panel kernel over the whole transpose
// panels (see TransposeInto) inside columns [jlo, jhi) and returns the
// columns [plo, phi) it filled. The caller fills [jlo, plo) and
// [phi, jhi) with the scalar kernel: a head before the first panel
// boundary, and columns of a panel that jhi cuts or of the partial last
// panel. It runs nothing, and returns jhi, jhi, without AVX2, when
// [jlo, jhi) holds no whole panel, or when rows [lo, hi) do not lie at
// stride k in one backing array. k must be ≥ 1.
//
// The float64 kernel issues a separate VMULPD then VADDPD per term — no
// FMA — so each lane performs the scalar loop's exact round(mul) →
// round(add) chain and every element is bit-identical to the naive
// loop. The float32 kernel takes one VFMADD231PS per term, so its
// elements are ULP-equivalent to the scalar loop.
func gramPanels[F Float](v [][]F, vt []F, lo, hi, jlo, jhi int, out []F, stride int) (plo, phi int) {
	w := panelWidth[F]()
	plo, phi = (jlo+w-1)/w*w, jhi/w*w
	k := len(v[lo])
	if !haveAVX2FMA || plo >= phi || !rowsStrided(v, lo, hi, k) {
		return jhi, jhi
	}
	a := unsafe.Pointer(unsafe.SliceData(v[lo]))
	bt := unsafe.Pointer(&vt[plo*k])
	o := unsafe.Pointer(&out[plo])
	ni, np := uint64(hi-lo), uint64((phi-plo)/w)
	if w == 8 {
		gramPanelKernelF64(a, bt, o, uint64(k), ni, np, uint64(stride))
	} else {
		gramPanelKernelF32(a, bt, o, uint64(k), ni, np, uint64(stride))
	}
	return plo, phi
}

// The Gram panel kernels compute out[i·ldo + p·w + c] = Σ_x a[i·k + x] ·
// bt[p·w·k + x·w + c] for rows i in [0, ni), panels p in [0, np) and
// panel columns c in [0, w), w = 64 bytes / element size; k, ni, np ≥ 1
// and ldo is in elements. Each panel is one pass: the rows in blocks of
// 4 rows × 2 ymm, then the last rows one at a time. Implemented in
// simd_amd64.s.

//go:noescape
func gramPanelKernelF64(a, bt, out unsafe.Pointer, k, ni, np, ldo uint64)

//go:noescape
func gramPanelKernelF32(a, bt, out unsafe.Pointer, k, ni, np, ldo uint64)

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
