package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkFusedMoments runs FusedBlockMoments with and without the AVX2
// second-moment kernel on copies of rows and holds every output of one
// to the other bit for bit, and both triangles to SecondMomentLower
// over the widened standardized rows. The kernel's copy has separately
// allocated rows and the scalar copy's rows share one backing array, so
// the row layout is checked not to matter either.
func checkFusedMoments[F Float](t *testing.T, name string, rows [][]F, gm, gsd, scale float64) {
	t.Helper()
	b, k := len(rows), len(rows[0])
	sep, carved, backing := make([][]F, b), make([][]F, b), make([]F, b*k)
	for i, r := range rows {
		sep[i] = append([]F(nil), r...)
		carved[i] = backing[i*k : (i+1)*k]
		copy(carved[i], r)
	}
	type moments struct{ mean, sd, norm2, lower []float64 }
	run := func(v [][]F, kernel bool) moments {
		m := moments{make([]float64, b), make([]float64, b), make([]float64, b), make([]float64, k*(k+1)/2)}
		fusedBlockMoments(v, gm, gsd, scale, m.mean, m.sd, m.norm2, m.lower, kernel)
		return m
	}
	kern, scal := run(sep, true), run(carved, false)
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d]: %v (%#x), want %v (%#x)", name, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	wide := make([][]float64, b)
	for i := range carved {
		wide[i] = make([]float64, k)
		for j, x := range carved[i] {
			wide[i][j] = float64(x)
			if math.Float64bits(float64(sep[i][j])) != math.Float64bits(wide[i][j]) {
				t.Fatalf("%s: standardized v[%d][%d]: kernel side %v, scalar side %v", name, i, j, sep[i][j], x)
			}
		}
	}
	same("mean", kern.mean, scal.mean)
	same("sd", kern.sd, scal.sd)
	same("norm2", kern.norm2, scal.norm2)
	same("kernel lower vs scalar", kern.lower, scal.lower)
	ref := make([]float64, k*(k+1)/2)
	SecondMomentLower(wide, scale, ref)
	same("scalar lower vs SecondMomentLower", scal.lower, ref)
}

// TestFusedBlockMomentsKernelBitIdentical: the AVX2 second-moment
// update (where the CPU has it) and the scalar loop give the same bits
// at float64 and float32, for empty rows, row lengths that fill whole
// vectors and ragged ones, B that is and is not a multiple of the four-row group,
// rows long enough that fewer than four fit the stack buffer (257, 513)
// or none does (1100), and values whose products are −0, subnormal or
// overflow to ±Inf and NaN.
func TestFusedBlockMomentsKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shapes := []struct{ b, k int }{
		{2, 0}, {1, 1}, {3, 1}, {5, 3}, {4, 4}, {7, 5}, {9, 7}, {1, 16}, {3, 16}, {256, 16},
		{1024, 16}, {3, 25}, {256, 25}, {1, 36}, {1024, 36}, {2, 63}, {1, 64}, {3, 64},
		{256, 64}, {1024, 64}, {6, 65}, {5, 257}, {3, 513}, {2, 1100},
	}
	for _, sh := range shapes {
		rows64, _ := carveRows[float64](rng, sh.b, sh.k)
		rows32, _ := carveRows[float32](rng, sh.b, sh.k)
		name := fmt.Sprintf("B=%d/k=%d", sh.b, sh.k)
		checkFusedMoments(t, "f64/"+name, rows64, 0.37, 1.9, 1/float64(sh.b))
		checkFusedMoments(t, "f32/"+name, rows32, 0.37, 1.9, 1/float64(sh.b))
	}
	specials := []float64{0, math.Copysign(0, -1), 1e-160, -3e-170, 1e150, -1e150, 2.5e-310, 1, -1}
	for _, sh := range []struct{ b, k int }{{9, 7}, {8, 16}, {5, 64}} {
		rows := make([][]float64, sh.b)
		for i := range rows {
			rows[i] = make([]float64, sh.k)
			for j := range rows[i] {
				rows[i][j] = specials[rng.Intn(len(specials))]
			}
		}
		checkFusedMoments(t, fmt.Sprintf("specials/B=%d/k=%d", sh.b, sh.k), rows, 0, 1, 1/float64(sh.b))
	}
}

// FuzzFusedBlockMoments runs the check of
// TestFusedBlockMomentsKernelBitIdentical on fuzzer-chosen B, row
// length k and values, at float64 or widened float32. The rows cycle
// through the float64s the data bytes spell and are standardized by
// (0, 1), which keeps them as they are. NaN inputs become +Inf, so
// every NaN arises in the arithmetic: a NaN input's payload could
// otherwise reach an entry through two operand orders.
func FuzzFusedBlockMoments(f *testing.F) {
	seed := func(b uint16, k uint8, f32 bool, vals ...float64) {
		data := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		f.Add(b, k, f32, data)
	}
	seed(3, 63, false, 1.5, -0.25, 0.75, 3, 0.1, 12)
	seed(255, 15, true, 1.5, -0.25, 0.75, 3, 0.1, 12)
	seed(8, 6, false, math.Copysign(0, -1), 0, 1e-160, -3e-170, 2.5e-310)
	seed(4, 24, false, 1e150, -1e150, 1e150, 7, -0.5)
	seed(0, 0, true, 1e30, -1e-30, math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, bRaw uint16, kRaw uint8, f32 bool, data []byte) {
		b := 1 + int(bRaw)%300
		k := 1 + int(kRaw)%80
		vals := make([]float64, 0, len(data)/8+1)
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(v) {
				v = math.Inf(1)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			vals = append(vals, 1)
		}
		name := fmt.Sprintf("fuzz/B=%d/k=%d/f32=%t", b, k, f32)
		if f32 {
			rows := make([][]float32, b)
			for i := range rows {
				rows[i] = make([]float32, k)
				for j := range rows[i] {
					rows[i][j] = float32(vals[(i*k+j)%len(vals)])
				}
			}
			checkFusedMoments(t, name, rows, 0, 1, 1/float64(b))
			return
		}
		rows := make([][]float64, b)
		for i := range rows {
			rows[i] = make([]float64, k)
			for j := range rows[i] {
				rows[i][j] = vals[(i*k+j)%len(vals)]
			}
		}
		checkFusedMoments(t, name, rows, 0, 1, 1/float64(b))
	})
}

// BenchmarkFusedBlockMoments times the fused pass at row length 64
// (8×8 blocks) for B = 256, 1024 and 4096 (128², 256² and 512²
// fields), at float32 and float64, with rows carved from one backing
// array (the predictors' scratch) and with rows allocated one by one
// (bench/replay.go). Standardizing by (0, 1) leaves the rows as they
// are, so every iteration sees the same values.
func BenchmarkFusedBlockMoments(b *testing.B) {
	const k = 64
	for _, blocks := range []int{256, 1024, 4096} {
		benchFusedMoments[float32](b, "f32", blocks, k)
		benchFusedMoments[float64](b, "f64", blocks, k)
	}
}

func benchFusedMoments[F Float](b *testing.B, dtype string, blocks, k int) {
	rng := rand.New(rand.NewSource(48))
	carved, _ := carveRows[F](rng, blocks, k)
	separate := make([][]F, blocks)
	for i, r := range carved {
		separate[i] = append([]F(nil), r...)
	}
	mean, sd, norm2 := make([]float64, blocks), make([]float64, blocks), make([]float64, blocks)
	lower := make([]float64, k*(k+1)/2)
	for _, layout := range []struct {
		name string
		rows [][]F
	}{{"carved", carved}, {"separate", separate}} {
		b.Run(fmt.Sprintf("%s/B=%d/%s", dtype, blocks, layout.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FusedBlockMoments(layout.rows, 0, 1, 1/float64(blocks), mean, sd, norm2, lower)
			}
		})
	}
}
