// AVX2 kernels behind simd_amd64.go. See gram.go for the determinism
// contract: the float64 Gram kernel uses separate VMULPD/VADDPD (no FMA)
// so every output element performs the scalar loop's exact rounding
// sequence, and so do the Jacobi rotation kernel (see rotate in
// eigen.go), the float64 pair sweep (see PairSweepF64 in pairreduce.go)
// and the second-moment update (see FusedBlockMoments in fused.go); the
// float32 kernels use FMA and are deterministic but only ULP-equivalent
// to the scalar fallback.

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The Gram panel kernels, func(a, bt, out unsafe.Pointer, k, ni, np, ldo uint64):
//
//	out[i*ldo + p*w + c] = sum_x a[i*k + x] * bt[p*w*k + x*w + c]
//
// for rows i in [0,ni), panels p in [0,np), panel columns c in [0,w),
// with w = 8 float64s or 16 float32s: one 64-byte line per x step of a
// panel (see TransposeInto). k, ni, np >= 1; ldo in elements. A panel
// is k*64 bytes, for either element type. Each panel is one pass over
// the left rows, in register blocks, then the last rows one at a time,
// with the rows' k elements L1-resident across the panels.
//
// Registers common to both: SI panel base, DI output column base of the
// panel, R9 a row stride in bytes, R10 3*R9, R8 out row stride in bytes,
// R11 3*R8, R12 panels left, R13 panel stride in bytes; per block AX
// walks the rows' x, R14 the panel's lines, R15 counts x, DX is the
// block's output row, BX the rows left.

// func gramPanelKernelF64(a, bt, out unsafe.Pointer, k, ni, np, ldo uint64)
//
// AVX2 float64: 4 rows x one panel (two ymm per row), eight chains. Per
// x step the panel line is two VMOVUPD, a[i][x] is one VBROADCASTSD per
// row, and each term is a VMULPD then a VADDPD, so every lane runs the
// scalar loop's round(mul) -> round(add) chain in x order.
TEXT ·gramPanelKernelF64(SB), NOSPLIT, $0-56
	MOVQ bt+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ k+24(FP), R9
	MOVQ R9, R13
	SHLQ $6, R13
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ ldo+48(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R11
	MOVQ np+40(FP), R12

y64panel:
	MOVQ a+0(FP), AX
	MOVQ DI, DX
	MOVQ ni+32(FP), BX

y64rows4:
	CMPQ BX, $4
	JLT  y64rows1
	MOVQ SI, R14
	MOVQ k+24(FP), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

y64x4:
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3
	VBROADCASTSD (AX)(R9*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7
	ADDQ $8, AX
	ADDQ $64, R14
	DECQ R15
	JNZ  y64x4

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R8*1)
	VMOVUPD Y3, 32(DX)(R8*1)
	VMOVUPD Y4, (DX)(R8*2)
	VMOVUPD Y5, 32(DX)(R8*2)
	VMOVUPD Y6, (DX)(R11*1)
	VMOVUPD Y7, 32(DX)(R11*1)
	LEAQ (DX)(R8*4), DX
	LEAQ (AX)(R10*1), AX    // AX ended on row 1; the next block is row 4
	SUBQ $4, BX
	JMP  y64rows4

y64rows1:
	TESTQ BX, BX
	JZ   y64next
	MOVQ SI, R14
	MOVQ k+24(FP), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

y64x1:
	VBROADCASTSD (AX), Y10
	VMULPD (R14), Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD 32(R14), Y10, Y11
	VADDPD Y11, Y1, Y1
	ADDQ $8, AX
	ADDQ $64, R14
	DECQ R15
	JNZ  y64x1

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ R8, DX
	DECQ BX
	JMP  y64rows1

y64next:
	ADDQ R13, SI
	ADDQ $64, DI
	DECQ R12
	JNZ  y64panel
	VZEROUPPER
	RET

// func gramPanelKernelF32(a, bt, out unsafe.Pointer, k, ni, np, ldo uint64)
//
// AVX2 float32: 4 rows x one panel (two ymm per row), eight chains, one
// VFMADD231PS per term.
TEXT ·gramPanelKernelF32(SB), NOSPLIT, $0-56
	MOVQ bt+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ k+24(FP), R9
	MOVQ R9, R13
	SHLQ $6, R13
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	MOVQ ldo+48(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11
	MOVQ np+40(FP), R12

y32panel:
	MOVQ a+0(FP), AX
	MOVQ DI, DX
	MOVQ ni+32(FP), BX

y32rows4:
	CMPQ BX, $4
	JLT  y32rows1
	MOVQ SI, R14
	MOVQ k+24(FP), R15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

y32x4:
	VMOVUPS (R14), Y8
	VMOVUPS 32(R14), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (AX)(R9*1), Y10
	VFMADD231PS Y8, Y10, Y2
	VFMADD231PS Y9, Y10, Y3
	VBROADCASTSS (AX)(R9*2), Y10
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VBROADCASTSS (AX)(R10*1), Y10
	VFMADD231PS Y8, Y10, Y6
	VFMADD231PS Y9, Y10, Y7
	ADDQ $4, AX
	ADDQ $64, R14
	DECQ R15
	JNZ  y32x4

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R8*1)
	VMOVUPS Y3, 32(DX)(R8*1)
	VMOVUPS Y4, (DX)(R8*2)
	VMOVUPS Y5, 32(DX)(R8*2)
	VMOVUPS Y6, (DX)(R11*1)
	VMOVUPS Y7, 32(DX)(R11*1)
	LEAQ (DX)(R8*4), DX
	LEAQ (AX)(R10*1), AX
	SUBQ $4, BX
	JMP  y32rows4

y32rows1:
	TESTQ BX, BX
	JZ   y32next
	MOVQ SI, R14
	MOVQ k+24(FP), R15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

y32x1:
	VBROADCASTSS (AX), Y10
	VFMADD231PS (R14), Y10, Y0
	VFMADD231PS 32(R14), Y10, Y1
	ADDQ $4, AX
	ADDQ $64, R14
	DECQ R15
	JNZ  y32x1

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ R8, DX
	DECQ BX
	JMP  y32rows1

y32next:
	ADDQ R13, SI
	ADDQ $64, DI
	DECQ R12
	JNZ  y32panel
	VZEROUPPER
	RET

// func pairReduceKernelF32(row, posR, posC, norm2, mean, invSd unsafe.Pointer, n uint64, consts *pairConsts32, sums *[3]float32)
//
// Eight pairs per iteration of the SD/SC pairwise reduction:
//
//	ds   = |ri - posR[j]| + |ci - posC[j]|
//	de   = sqrt(max(0, n2i + norm2[j] - 2*row[j]))
//	rho  = clamp(|(row[j]*invK2 - mi*mean[j]) * invSdI * invSd[j]|, 0, 1)
//	sums = (sum ds, sum ds*de, sum ds*rho)
//
// Lane accumulators are horizontally folded with a fixed VHADDPS tree,
// so the result is deterministic for a given n.
TEXT ·pairReduceKernelF32(SB), NOSPLIT, $0-72
	MOVQ row+0(FP), SI
	MOVQ posR+8(FP), R8
	MOVQ posC+16(FP), R9
	MOVQ norm2+24(FP), R10
	MOVQ mean+32(FP), R11
	MOVQ invSd+40(FP), R12
	MOVQ n+48(FP), CX
	MOVQ consts+56(FP), DX
	VBROADCASTSS 0(DX), Y8      // ri
	VBROADCASTSS 4(DX), Y9      // ci
	VBROADCASTSS 8(DX), Y10     // n2i
	VBROADCASTSS 12(DX), Y11    // mi
	VBROADCASTSS 16(DX), Y12    // invSdI
	VBROADCASTSS 20(DX), Y13    // invK2
	MOVL $0x7FFFFFFF, AX        // abs mask
	MOVL AX, X14
	VBROADCASTSS X14, Y14
	MOVL $0x3F800000, AX        // 1.0f
	MOVL AX, X15
	VBROADCASTSS X15, Y15
	VXORPS Y0, Y0, Y0           // sum ds
	VXORPS Y1, Y1, Y1           // sum ds*de
	VXORPS Y2, Y2, Y2           // sum ds*rho

prloop:
	VMOVUPS (R8), Y3
	VSUBPS Y3, Y8, Y4           // ri - posR
	VANDPS Y14, Y4, Y4
	VMOVUPS (R9), Y3
	VSUBPS Y3, Y9, Y5           // ci - posC
	VANDPS Y14, Y5, Y5
	VADDPS Y5, Y4, Y4           // ds
	VMOVUPS (SI), Y5            // dot
	VMOVUPS (R10), Y3
	VADDPS Y10, Y3, Y3          // n2i + norm2[j]
	VADDPS Y5, Y5, Y6           // 2*dot
	VSUBPS Y6, Y3, Y3           // de2
	VXORPS Y6, Y6, Y6
	VMAXPS Y6, Y3, Y3           // clamp to >= 0
	VSQRTPS Y3, Y3              // de
	VMULPS Y13, Y5, Y5          // dot * invK2
	VMOVUPS (R11), Y6
	VMULPS Y11, Y6, Y6          // mi * mean[j]
	VSUBPS Y6, Y5, Y5           // cov
	VMULPS Y12, Y5, Y5          // * invSdI
	VMOVUPS (R12), Y6
	VMULPS Y6, Y5, Y5           // rho
	VANDPS Y14, Y5, Y5          // |rho|
	VMINPS Y15, Y5, Y5          // min(|rho|, 1)
	VADDPS Y4, Y0, Y0
	VFMADD231PS Y3, Y4, Y1      // += ds*de
	VFMADD231PS Y5, Y4, Y2      // += ds*rho
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	SUBQ $8, CX
	JNZ  prloop

	MOVQ sums+64(FP), DX
	VEXTRACTF128 $1, Y0, X3
	VADDPS X3, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, 0(DX)
	VEXTRACTF128 $1, Y1, X3
	VADDPS X3, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VMOVSS X1, 4(DX)
	VEXTRACTF128 $1, Y2, X3
	VADDPS X3, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VMOVSS X2, 8(DX)
	VZEROUPPER
	RET

// func rotateKernelF64(rowP, rowQ, colP, colQ unsafe.Pointer, n, ld uint64, c, s float64)
//
// Four lanes of the Jacobi row update, for i in [0,n) with n a positive
// multiple of 4:
//
//	nip = c*rowP[i] - s*rowQ[i]     rowP[i] = colP[i*ld] = nip
//	niq = s*rowP[i] + c*rowQ[i]     rowQ[i] = colQ[i*ld] = niq
//
// Each product is its own VMULPD and each sum its own VSUBPD/VADDPD (no
// FMA), so every lane rounds exactly as the scalar statement does. Rows
// are stored whole; the mirrored column entries are ld elements apart,
// so they are stored one lane at a time from the low and high halves.
TEXT ·rotateKernelF64(SB), NOSPLIT, $0-64
	MOVQ rowP+0(FP), SI
	MOVQ rowQ+8(FP), DI
	MOVQ colP+16(FP), R8
	MOVQ colQ+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ ld+40(FP), R10
	SHLQ $3, R10            // column stride, bytes
	LEAQ (R10)(R10*2), R11  // 3 * column stride
	VBROADCASTSD c+48(FP), Y14
	VBROADCASTSD s+56(FP), Y15

rotloop:
	VMOVUPD (SI), Y0        // aip
	VMOVUPD (DI), Y1        // aiq
	VMULPD Y0, Y14, Y2      // c*aip
	VMULPD Y1, Y15, Y3      // s*aiq
	VSUBPD Y3, Y2, Y2       // nip
	VMULPD Y0, Y15, Y4      // s*aip
	VMULPD Y1, Y14, Y5      // c*aiq
	VADDPD Y5, Y4, Y4       // niq
	VMOVUPD Y2, (SI)
	VMOVUPD Y4, (DI)
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y4, X7
	VMOVSD X2, (R8)
	VMOVHPD X2, (R8)(R10*1)
	VMOVSD X6, (R8)(R10*2)
	VMOVHPD X6, (R8)(R11*1)
	VMOVSD X4, (R9)
	VMOVHPD X4, (R9)(R10*1)
	VMOVSD X7, (R9)(R10*2)
	VMOVHPD X7, (R9)(R11*1)
	LEAQ (R8)(R10*4), R8
	LEAQ (R9)(R10*4), R9
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  rotloop

	VZEROUPPER
	RET

// func pairSweepKernelF64(row, posR, posC, norm2, mean, sd, accDs, accDsDe, accDsV unsafe.Pointer, n uint64, consts *pairConsts64, sums *[3]float64)
//
// Four pairs (i, j..j+3) per iteration of the float64 pair sweep, for
// j in [0,n) with n a positive multiple of 4:
//
//	ds   = |ri - posR[j]| + |ci - posC[j]|
//	de2  = (n2i + norm2[j]) - 2*row[j];  de2 = 0 if de2 < 0
//	de   = sqrt(de2)
//	rho  = (row[j]*invK2 - mi*mean[j]) / (sdi*sd[j]), clamped to [-1, 1]
//	rho  = 0 unless sdi > 0 and sd[j] > 0
//	terms: ds, ds*de, ds*|rho|
//
// Every operation is its own instruction, in the order of the scalar
// statement: no FMA, and VDIVPD/VSQRTPD round correctly. The max and
// min take the constant as the first source, so a NaN or -0 de2 and a
// NaN rho pass through as in the scalar comparisons; clamping |rho| at
// 1 equals clamping rho to [-1, 1] and then taking |rho|. Row i's three
// sums fold the lanes one by one in j order; each partner sum takes its
// lane's term with one add.
TEXT ·pairSweepKernelF64(SB), NOSPLIT, $0-96
	MOVQ row+0(FP), SI
	MOVQ posR+8(FP), R8
	MOVQ posC+16(FP), R9
	MOVQ norm2+24(FP), R10
	MOVQ mean+32(FP), R11
	MOVQ sd+40(FP), R12
	MOVQ accDs+48(FP), R13
	MOVQ accDsDe+56(FP), R14
	MOVQ accDsV+64(FP), R15
	MOVQ n+72(FP), CX
	SHLQ $3, CX                  // n, bytes
	MOVQ consts+80(FP), DX
	VBROADCASTSD 0(DX), Y12      // ri
	VBROADCASTSD 8(DX), Y11      // ci
	VBROADCASTSD 16(DX), Y10     // n2i
	VBROADCASTSD 24(DX), Y9      // mi
	VBROADCASTSD 32(DX), Y8      // sdi
	VBROADCASTSD 40(DX), Y7      // invK2
	MOVQ $0x7FFFFFFFFFFFFFFF, AX // abs mask
	MOVQ AX, X15
	VBROADCASTSD X15, Y15
	MOVQ $0x3FF0000000000000, AX // 1.0
	MOVQ AX, X14
	VBROADCASTSD X14, Y14
	VXORPD Y13, Y13, Y13         // 0.0
	VXORPD X0, X0, X0            // row sum ds
	VXORPD X1, X1, X1            // row sum ds*de
	VXORPD X2, X2, X2            // row sum ds*|rho|
	XORQ AX, AX                  // j, bytes

psloop:
	VMOVUPD (R8)(AX*1), Y3
	VSUBPD Y3, Y12, Y3           // ri - posR[j]
	VANDPD Y15, Y3, Y3
	VMOVUPD (R9)(AX*1), Y4
	VSUBPD Y4, Y11, Y4           // ci - posC[j]
	VANDPD Y15, Y4, Y4
	VADDPD Y4, Y3, Y3            // ds
	VMOVUPD (SI)(AX*1), Y4       // dot
	VADDPD (R10)(AX*1), Y10, Y5  // n2i + norm2[j]
	VADDPD Y4, Y4, Y6            // 2*dot
	VSUBPD Y6, Y5, Y5            // de2
	VMAXPD Y5, Y13, Y5           // 0 > de2 ? 0 : de2
	VSQRTPD Y5, Y5               // de
	VMULPD Y5, Y3, Y5            // ds*de
	VMULPD Y7, Y4, Y4            // dot*invK2
	VMULPD (R11)(AX*1), Y9, Y6   // mi*mean[j]
	VSUBPD Y6, Y4, Y4            // cov
	VMULPD (R12)(AX*1), Y8, Y6   // sdi*sd[j]
	VDIVPD Y6, Y4, Y4            // rho
	VANDPD Y15, Y4, Y4           // |rho|
	VMINPD Y4, Y14, Y4           // 1 < |rho| ? 1 : |rho|
	VCMPPD $0x11, (R12)(AX*1), Y13, Y6 // 0 < sd[j] (LT_OQ)
	VANDPD 48(DX), Y6, Y6        // and sdi > 0
	VANDPD Y6, Y4, Y4            // gated |rho|
	VMULPD Y4, Y3, Y4            // ds*|rho|

	VADDSD X3, X0, X0            // row sum ds, lanes 0..3 in order
	VPERMILPD $1, X3, X6
	VADDSD X6, X0, X0
	VEXTRACTF128 $1, Y3, X6
	VADDSD X6, X0, X0
	VPERMILPD $1, X6, X6
	VADDSD X6, X0, X0
	VADDPD (R13)(AX*1), Y3, Y3   // partner sums ds
	VMOVUPD Y3, (R13)(AX*1)

	VADDSD X5, X1, X1            // row sum ds*de
	VPERMILPD $1, X5, X6
	VADDSD X6, X1, X1
	VEXTRACTF128 $1, Y5, X6
	VADDSD X6, X1, X1
	VPERMILPD $1, X6, X6
	VADDSD X6, X1, X1
	VADDPD (R14)(AX*1), Y5, Y5   // partner sums ds*de
	VMOVUPD Y5, (R14)(AX*1)

	VADDSD X4, X2, X2            // row sum ds*|rho|
	VPERMILPD $1, X4, X6
	VADDSD X6, X2, X2
	VEXTRACTF128 $1, Y4, X6
	VADDSD X6, X2, X2
	VPERMILPD $1, X6, X6
	VADDSD X6, X2, X2
	VADDPD (R15)(AX*1), Y4, Y4   // partner sums ds*|rho|
	VMOVUPD Y4, (R15)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JLT  psloop

	MOVQ sums+88(FP), DX
	VMOVSD X0, 0(DX)
	VMOVSD X1, 8(DX)
	VMOVSD X2, 16(DX)
	VZEROUPPER
	RET

// func secondMomentKernelF64(w unsafe.Pointer, n, k uint64, scale float64, lower unsafe.Pointer)
//
// Adds scale*w_r*w_r^T of the n rows w_r = w[r*k : (r+1)*k] to the
// row-major lower triangle (diagonal included) at lower, rows in order:
//
//	lower[p][q] += (w_r[p]*scale) * w_r[q]    for p in [0,k), q in [0,p]
//
// Each xp = w_r[p]*scale is rounded by its own VMULSD before it is
// broadcast, and each term is its own VMULPD (VMULSD in a row's ragged
// tail) then VADDPD (VADDSD): no FMA, so every entry takes the scalar
// loop's round(mul) -> round(add) chain. Rows go four at a time: an
// entry is loaded once, takes the four rows' terms in row order, and is
// stored once; the last n mod 4 rows take one pass each.
TEXT ·secondMomentKernelF64(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), R12
	MOVQ k+16(FP), R13
	VBROADCASTSD scale+24(FP), Y15
	MOVQ R13, R14
	SHLQ $3, R14            // row stride, bytes

smquad:
	CMPQ R12, $4
	JLT  smsingle
	MOVQ SI, R8
	LEAQ (R8)(R14*1), R9
	LEAQ (R9)(R14*1), R10
	LEAQ (R10)(R14*1), R11
	MOVQ lower+32(FP), DI
	XORQ BX, BX             // p

sqrow:
	VMULSD (R8)(BX*8), X15, X0 // xp of each row, rounded, then broadcast
	VBROADCASTSD X0, Y0
	VMULSD (R9)(BX*8), X15, X1
	VBROADCASTSD X1, Y1
	VMULSD (R10)(BX*8), X15, X2
	VBROADCASTSD X2, Y2
	VMULSD (R11)(BX*8), X15, X3
	VBROADCASTSD X3, Y3
	LEAQ 1(BX), CX          // entries in row p
	MOVQ CX, DX
	ANDQ $-4, DX            // of them in whole vectors
	XORQ AX, AX             // q
	TESTQ DX, DX
	JZ   sqtail

sqvec:
	VMOVUPD (DI), Y4
	VMULPD (R8)(AX*8), Y0, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R9)(AX*8), Y1, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R10)(AX*8), Y2, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R11)(AX*8), Y3, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ $32, DI
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  sqvec

sqtail:
	CMPQ AX, CX
	JGE  sqnext
	VMOVSD (DI), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)
	ADDQ $8, DI
	INCQ AX
	JMP  sqtail

sqnext:
	INCQ BX
	CMPQ BX, R13
	JLT  sqrow
	LEAQ (SI)(R14*4), SI
	SUBQ $4, R12
	JMP  smquad

smsingle:
	TESTQ R12, R12
	JZ   smdone
	MOVQ lower+32(FP), DI
	XORQ BX, BX             // p

ssrow:
	VMULSD (SI)(BX*8), X15, X0
	VBROADCASTSD X0, Y0
	LEAQ 1(BX), CX
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX
	TESTQ DX, DX
	JZ   sstail

ssvec:
	VMOVUPD (DI), Y4
	VMULPD (SI)(AX*8), Y0, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ $32, DI
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  ssvec

sstail:
	CMPQ AX, CX
	JGE  ssnext
	VMOVSD (DI), X4
	VMULSD (SI)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)
	ADDQ $8, DI
	INCQ AX
	JMP  sstail

ssnext:
	INCQ BX
	CMPQ BX, R13
	JLT  ssrow
	ADDQ R14, SI
	DECQ R12
	JMP  smsingle

smdone:
	VZEROUPPER
	RET
