package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refPairFoldF64 is the float64 pair fold the predictors ran before
// PairSweepF64, kept as the reference: row i of the full symmetric Gram
// matrix g (B×B, row-major) is folded serially over j = 0…B−1, skipping
// j == i. PairSweepF64 must reproduce its three sums bit for bit.
func refPairFoldF64(g []float64, i int, posR, posC, norm2, mean, sd []float64, fk2, invK2 float64) (sumDs, sumDsDe, sumDsV float64) {
	b := len(posR)
	row := g[i*b : (i+1)*b]
	ri, ci := posR[i], posC[i]
	n2i, mi, sdi := norm2[i], mean[i], sd[i]
	for j := 0; j < b; j++ {
		if j == i {
			continue
		}
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
		sumDs += ds
		sumDsDe += ds * de
		sumDsV += ds * math.Abs(rho)
	}
	return sumDs, sumDsDe, sumDsV
}

// pairInputs is one pair-sweep problem: B blocks on a grid bc blocks
// wide, their stats, and the symmetric Gram matrix (full, row-major).
type pairInputs struct {
	name            string
	k2              int
	posR, posC      []float64
	norm2, mean, sd []float64
	gram            []float64
}

func (p *pairInputs) b() int { return len(p.posR) }

func newPairInputs(name string, b, bc, k2 int) *pairInputs {
	p := &pairInputs{
		name: name, k2: k2,
		posR: make([]float64, b), posC: make([]float64, b),
		norm2: make([]float64, b), mean: make([]float64, b), sd: make([]float64, b),
		gram: make([]float64, b*b),
	}
	for i := 0; i < b; i++ {
		p.posR[i], p.posC[i] = float64(i/bc), float64(i%bc)
	}
	return p
}

// standardizedPairs builds the inputs the predictors build: a smooth
// random field cut into B blocks of k2 elements, standardized by
// FusedBlockMoments, with the lower Gram triangle from GramBlockT and
// the mirror. Every constEvery-th block is constant (sd = 0).
func standardizedPairs(rng *rand.Rand, b, k2, constEvery int) *pairInputs {
	bc := int(math.Sqrt(float64(b)))
	if bc < 1 {
		bc = 1
	}
	p := newPairInputs(fmt.Sprintf("standardized/B=%d/k2=%d/const=%d", b, k2, constEvery), b, bc, k2)
	v, _ := carveRows[float64](rng, b, k2)
	for i := range v {
		base := rng.NormFloat64() * 3
		for x := range v[i] {
			if constEvery > 0 && i%constEvery == 0 {
				v[i][x] = base
			} else {
				v[i][x] = base + 0.3*v[i][x]
			}
		}
	}
	lower := make([]float64, k2*(k2+1)/2)
	FusedBlockMoments(v, 0.25, 2.5, 1/float64(b), p.mean, p.sd, p.norm2, lower)
	vt := make([]float64, b*k2)
	TransposeInto(v, vt)
	for lo := 0; lo < b; lo += 16 {
		hi := min(lo+16, b)
		GramBlockT(v, vt, lo, hi, 0, hi, p.gram[lo*b:], b)
	}
	MirrorLowerUpper(p.gram, b)
	return p
}

// craftedPairs draws block stats and Gram entries from random values
// mixed, at rate frac, with special ones: squared norms and Gram entries
// that make de² negative or −0 or overflow it to Inf − Inf = NaN, means
// whose product overflows, sds of zero (either side of the gate), tiny
// sds that push rho far past ±1 in both signs, and huge ones whose
// product overflows. Blocks repeat grid positions when bc is 1.
func craftedPairs(rng *rand.Rand, b, bc, k2 int, frac float64) *pairInputs {
	p := newPairInputs(fmt.Sprintf("crafted/B=%d/bc=%d/k2=%d/frac=%g", b, bc, k2, frac), b, bc, k2)
	negZero := math.Copysign(0, -1)
	pick := func(special []float64, random float64) float64 {
		if rng.Float64() < frac {
			return special[rng.Intn(len(special))]
		}
		return random
	}
	for i := 0; i < b; i++ {
		p.norm2[i] = pick([]float64{0, negZero, 1e-300, 1.7e308, math.MaxFloat64, 0.5}, float64(k2)*(0.5+rng.Float64()))
		p.mean[i] = pick([]float64{0, negZero, 1e200, -1e200, 4}, 0.3*rng.NormFloat64())
		p.sd[i] = pick([]float64{0, negZero, 1e-9, 1e-200, 1e300, math.Inf(1)}, 0.2+rng.Float64())
	}
	for i := 0; i < b; i++ {
		for j := 0; j < i; j++ {
			g := pick([]float64{0, negZero, 1e308, -1e308, math.MaxFloat64, 3 * float64(k2), -3 * float64(k2)},
				float64(k2)*rng.NormFloat64()*0.5)
			p.gram[i*b+j], p.gram[j*b+i] = g, g
		}
		p.gram[i*b+i] = p.norm2[i]
	}
	return p
}

// pairCensus counts the crafted cases problems hit over their unordered
// pairs, so a test can show it reaches them.
type pairCensus struct{ deClamp, clamped, nonFinite int }

func (c *pairCensus) add(p *pairInputs) {
	b := p.b()
	for i := 0; i < b; i++ {
		for j := 0; j < i; j++ {
			dot := p.gram[i*b+j]
			if de2 := p.norm2[i] + p.norm2[j] - 2*dot; de2 < 0 || (de2 == 0 && math.Signbit(de2)) {
				c.deClamp++
			} else if math.IsNaN(de2) {
				c.nonFinite++
			}
			if p.sd[i] > 0 && p.sd[j] > 0 {
				rho := (dot/float64(p.k2) - p.mean[i]*p.mean[j]) / (p.sd[i] * p.sd[j])
				if math.IsNaN(rho) {
					c.nonFinite++
				} else if math.Abs(rho) > 1 {
					c.clamped++
				}
			}
		}
	}
}

// checkPairSweep runs the sweep on p in blocks of 1, 16 and B rows,
// each through the dispatching entry point (the AVX2 kernel where the
// CPU has it) and the scalar sweep, and fails on the first row whose
// three sums differ in any bit from the reference full-row fold. Each
// block sees the lower-triangle rows it owns in a buffer whose every
// other entry is poisoned, at a row stride of B (the whole-matrix
// blocks), of the block's last row length (the 16-row blocks), or of 0
// (the one-row blocks), so a read outside a row shows.
func checkPairSweep(t testing.TB, p *pairInputs) {
	t.Helper()
	b := p.b()
	poison := math.Float64frombits(0x7FF4_0000_DEAD_BEEF) // signaling NaN
	fk2 := float64(p.k2)
	var invK2 float64
	if p.k2&(p.k2-1) == 0 {
		invK2 = 1 / fk2
	}
	type sums struct{ ds, dsDe, dsV []float64 }
	run := func(height int, vec bool) sums {
		s := sums{make([]float64, b), make([]float64, b), make([]float64, b)}
		for i := 0; i < b; i++ { // outputs must be overwritten, not accumulated into
			s.ds[i], s.dsDe[i], s.dsV[i] = 7, math.NaN(), math.Inf(-1)
		}
		for lo := 0; lo < b; lo += height {
			hi := min(lo+height, b)
			ld := hi - 1
			switch height {
			case 1:
				ld = 0
			case b:
				ld = b
			}
			panel := make([]float64, (hi-lo)*max(ld, hi))
			for i := range panel {
				panel[i] = poison
			}
			for i := lo; i < hi; i++ {
				copy(panel[(i-lo)*ld:], p.gram[i*b:i*b+i])
			}
			if vec {
				PairSweepF64(panel, lo, hi, ld, p.posR, p.posC, p.norm2, p.mean, p.sd, p.k2, s.ds, s.dsDe, s.dsV)
			} else {
				pairSweepF64(panel, lo, hi, ld, p.posR, p.posC, p.norm2, p.mean, p.sd, p.k2, s.ds, s.dsDe, s.dsV, false)
			}
		}
		return s
	}
	type impl struct {
		name string
		s    sums
	}
	var impls []impl
	for _, height := range []int{1, 16, b} {
		impls = append(impls,
			impl{fmt.Sprintf("sweep/%d-row blocks", height), run(height, true)},
			impl{fmt.Sprintf("scalar sweep/%d-row blocks", height), run(height, false)})
	}
	for i := 0; i < b; i++ {
		var ref [3]float64
		ref[0], ref[1], ref[2] = refPairFoldF64(p.gram, i, p.posR, p.posC, p.norm2, p.mean, p.sd, fk2, invK2)
		for _, impl := range impls {
			got := [3]float64{impl.s.ds[i], impl.s.dsDe[i], impl.s.dsV[i]}
			for k, name := range []string{"Σds", "Σds·de", "Σds·|ρ|"} {
				if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
					t.Fatalf("%s: row %d %s: %s %v (%#x) != reference %v (%#x)",
						p.name, i, name, impl.name, got[k], math.Float64bits(got[k]), ref[k], math.Float64bits(ref[k]))
				}
			}
		}
	}
}

// pairSweepSizes are the block counts of the sweep tests: every residue
// mod 4 around the kernel's lane width and around powers of two.
var pairSweepSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257}

// uniformPairs is a problem whose every block has the same stats and
// whose every Gram entry is g, so each pair of a row long enough for
// the kernel carries the same special value.
func uniformPairs(name string, b int, norm2, mean, sd, g float64) *pairInputs {
	p := newPairInputs(fmt.Sprintf("%s/B=%d", name, b), b, 3, 64)
	for i := 0; i < b; i++ {
		p.norm2[i], p.mean[i], p.sd[i] = norm2, mean, sd
		for j := 0; j < b; j++ {
			p.gram[i*b+j] = g
		}
	}
	return p
}

// TestPairSweepF64BitIdentical holds the sweep — the AVX2 kernel where
// the CPU has it, and the scalar sweep, each in blocks of 1, 16 and B
// rows — to the reference full-row fold, bit for bit on every row's
// three sums, at power-of-two and other k²,
// on standardized blocks and on crafted ones that hit de² < 0 and −0,
// rho past ±1 in both signs, sd = 0 on either side of a pair, and
// Inf/NaN from overflowing magnitudes. A lane that fused a multiply-add,
// a min/max that swallowed a NaN, or a dropped partner store fails here.
func TestPairSweepF64BitIdentical(t *testing.T) {
	t.Logf("AVX2 kernels enabled: %v", SIMDEnabled())
	rng := rand.New(rand.NewSource(50))
	var census pairCensus
	for _, k2 := range []int{64, 16, 1, 36, 9} {
		for _, b := range pairSweepSizes {
			for _, constEvery := range []int{0, 3} {
				checkPairSweep(t, standardizedPairs(rng, b, k2, constEvery))
			}
			for _, frac := range []float64{0, 0.05, 0.3} {
				for _, bc := range []int{1, 4, 16} {
					p := craftedPairs(rng, b, bc, k2, frac)
					census.add(p)
					checkPairSweep(t, p)
				}
			}
		}
	}
	// Rows where every pair carries one special value: de² = −0 (both
	// norms −0 against a +0 dot), de² = Inf − Inf, and rho = NaN from
	// overflowing mean and sd products, with the covariance ±Inf.
	negZero := math.Copysign(0, -1)
	for _, b := range []int{9, 16, 33} {
		for _, p := range []*pairInputs{
			uniformPairs("de2=-0", b, negZero, 0, 1, 0),
			uniformPairs("de2=Inf-Inf", b, 1.7e308, 0, 1, 1e308),
			uniformPairs("rho=-Inf/Inf", b, 1, 1e200, 1e300, 1),
			uniformPairs("rho=-Inf/Inf,de2=Inf", b, 1, 1e200, 1e300, -1e308),
		} {
			census.add(p)
			checkPairSweep(t, p)
		}
	}
	// The crafted problems must reach the cases they were built for.
	if c := census; c.deClamp == 0 || c.clamped == 0 || c.nonFinite == 0 {
		t.Fatalf("crafted inputs hit de² ≤ 0 %d, |rho| > 1 %d, NaN %d times", c.deClamp, c.clamped, c.nonFinite)
	}
}

// TestPairInputsShortPanic: both pair kernels check every per-block
// input against the block count before any kernel reads it. Before the
// check, PairReduceF32 on amd64 handed an 8-element posR to the AVX2
// kernel for a 40-element row and returned sums read past its end.
func TestPairInputsShortPanic(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	const b = 40
	f32 := func(n int) []float32 { return make([]float32, n) }
	for arg := 0; arg < 5; arg++ {
		in := [5][]float32{f32(b), f32(b), f32(b), f32(b), f32(b)}
		in[arg] = f32(8)
		expectPanic(fmt.Sprintf("PairReduceF32 short input %d", arg), func() {
			PairReduceF32(f32(b), in[0], in[1], in[2], in[3], in[4], 0, 1.0/64)
		})
	}
	f64 := func(n int) []float64 { return make([]float64, n) }
	// posR sets the block count; each other per-block input in turn is short.
	for arg := 0; arg < 7; arg++ {
		in := [7][]float64{f64(b), f64(b), f64(b), f64(b), f64(b), f64(b), f64(b)}
		in[arg] = f64(8)
		expectPanic(fmt.Sprintf("PairSweepF64 short input %d", arg), func() {
			PairSweepF64(f64(b*b), 0, b, b, f64(b), in[0], in[1], in[2], in[3], 64, in[4], in[5], in[6])
		})
	}
	expectPanic("PairSweepF64 short panel", func() {
		PairSweepF64(f64(8*b+b-2), 8, b, b, f64(b), f64(b), f64(b), f64(b), f64(b), 64, f64(b), f64(b), f64(b))
	})
	for _, r := range [][3]int{{-1, 4, b}, {4, b + 1, b}, {5, 4, b}, {4, 6, -1}} {
		expectPanic(fmt.Sprintf("PairSweepF64 rows [%d, %d) at stride %d", r[0], r[1], r[2]), func() {
			PairSweepF64(f64(b*b), r[0], r[1], r[2], f64(b), f64(b), f64(b), f64(b), f64(b), 64, f64(b), f64(b), f64(b))
		})
	}
	expectPanic("PairSweepF64 k2 = 0", func() {
		PairSweepF64(f64(b*b), 0, b, b, f64(b), f64(b), f64(b), f64(b), f64(b), 0, f64(b), f64(b), f64(b))
	})
}

// FuzzPairSweepF64 runs the bitwise check of TestPairSweepF64BitIdentical
// (vector and scalar sweeps in blocks of 1, 16 and B rows against the
// full-row fold) on fuzzer-chosen B, grid width, k² and
// data: the block stats and Gram entries cycle through the float64s
// the data bytes spell. NaN inputs become +Inf, so every NaN arises in
// the arithmetic; a NaN input's payload could otherwise reach one sum
// through two operand orders.
func FuzzPairSweepF64(f *testing.F) {
	seed := func(b uint16, bc, k2 uint8, vals ...float64) {
		data := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		f.Add(b, bc, k2, data)
	}
	seed(17, 4, 63, 1.5, -0.25, 0.75, 3, 0.1, 12)
	seed(64, 8, 15, 1.7e308, 1e200, 1e300, 1e308, 0, math.Copysign(0, -1))
	seed(9, 0, 35, 2, 0.5, 0, -7, 1e-200, 4)
	seed(255, 15, 0, 64, 0.01, 1, 40, -40)
	f.Fuzz(func(t *testing.T, bRaw uint16, bcRaw, k2Raw uint8, data []byte) {
		b := 1 + int(bRaw)%300
		bc := 1 + int(bcRaw)%b
		k2 := 1 + int(k2Raw)%80
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
		next := 0
		val := func() float64 {
			v := vals[next%len(vals)]
			next++
			return v
		}
		p := newPairInputs(fmt.Sprintf("fuzz/B=%d/bc=%d/k2=%d", b, bc, k2), b, bc, k2)
		for i := 0; i < b; i++ {
			p.norm2[i], p.mean[i], p.sd[i] = val(), val(), val()
			for j := 0; j < i; j++ {
				g := val()
				p.gram[i*b+j], p.gram[j*b+i] = g, g
			}
		}
		checkPairSweep(t, p)
	})
}
