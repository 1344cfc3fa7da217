package predictors

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/stats"
)

// TestReductionDeterminismAcrossWorkers pins the deterministic-reduction
// contract: ComputeDataset must return bit-identical features for every
// worker count, on every call. The old compare-and-swap SD/SC accumulators
// summed in goroutine-scheduling order, so under `-race -count=20` this
// test flaked on any multi-core machine; the fixed-index-order reductions
// make it exact by construction. Values of wildly mixed magnitudes make
// any reassociation visible in the low bits.
func TestReductionDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	buf := grid.NewBuffer(96, 96)
	for i := range buf.Data {
		buf.Data[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(24)))
	}

	base, err := ComputeDataset(buf, Config{K: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 8} {
		for iter := 0; iter < 4; iter++ {
			got, err := ComputeDataset(buf, Config{K: 8, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			checkBitIdentical(t, base, got, w, iter)
		}
	}
}

func checkBitIdentical(t *testing.T, want, got DatasetFeatures, workers, iter int) {
	t.Helper()
	fields := []struct {
		name       string
		want, have float64
	}{
		{"SD", want.SD, got.SD},
		{"SC", want.SC, got.SC},
		{"CodingGain", want.CodingGain, got.CodingGain},
		{"CovSVDTrunc", want.CovSVDTrunc, got.CovSVDTrunc},
	}
	for _, f := range fields {
		if math.Float64bits(f.want) != math.Float64bits(f.have) {
			t.Errorf("workers=%d iter=%d: %s = %x (%.17g), want %x (%.17g)",
				workers, iter, f.name,
				math.Float64bits(f.have), f.have,
				math.Float64bits(f.want), f.want)
		}
	}
	if len(want.SingularProfile) != len(got.SingularProfile) {
		t.Fatalf("workers=%d iter=%d: profile length %d, want %d",
			workers, iter, len(got.SingularProfile), len(want.SingularProfile))
	}
	for i := range want.SingularProfile {
		if math.Float64bits(want.SingularProfile[i]) != math.Float64bits(got.SingularProfile[i]) {
			t.Errorf("workers=%d iter=%d: SingularProfile[%d] differs bitwise",
				workers, iter, i)
		}
	}
}

// refPairRow is the pairwise fold the predictors ran before the block
// sweep, kept as the reference: row i of the full symmetric Gram matrix
// is folded serially over j = 0…B−1 in float64, skipping j == i, and
// turned into block i's Σ Ds·De / Σ Ds and Σ Ds·|ρ| / Σ Ds. gram holds
// the lower triangle (row-major, B×B); G[i][j] for j > i is read from
// G[j][i].
func refPairRow[F linalg.Float](s *dsScratch[F], gram []F, i int) (wInter, scBlock float64) {
	b, k2 := len(s.vecs), len(s.vecs[0])
	fk2, invK2 := float64(k2), 0.0
	if k2&(k2-1) == 0 {
		invK2 = 1 / fk2
	}
	ri, ci := s.posR[i], s.posC[i]
	n2i, mi, sdi := s.norm2[i], s.mean[i], s.sd[i]
	var sumDs, sumDsDe, sumDsV float64
	for j := 0; j < b; j++ {
		if j == i {
			continue
		}
		dot := float64(gram[max(i, j)*b+min(i, j)])
		ds := math.Abs(ri-s.posR[j]) + math.Abs(ci-s.posC[j])
		de2 := n2i + s.norm2[j] - 2*dot
		if de2 < 0 {
			de2 = 0
		}
		de := math.Sqrt(de2)
		var rho float64
		if sdi > 0 && s.sd[j] > 0 {
			var cov float64
			if invK2 != 0 {
				// k² is a power of two, so multiplying by the exact
				// reciprocal rounds identically to dividing by k².
				cov = dot*invK2 - mi*s.mean[j]
			} else {
				cov = dot/fk2 - mi*s.mean[j]
			}
			rho = cov / (sdi * s.sd[j])
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
	if sumDs > 0 {
		return sumDsDe / sumDs, sumDsV / sumDs
	}
	return 0, 0
}

// TestPairBlockHeightBitIdentical holds the pairwise pass to the
// reference full-row fold, bit for bit on every block, at block heights
// of 16 and 128 rows and of one block for all B rows, serial and with
// workers, for both element types. The reference folds the same Gram
// entries, filled as the whole lower triangle in one go, so it shows
// any dependence on how the rows are cut into blocks or workers. The
// shapes cover B mod 4 of 1, 2 and 3 (ragged kernel tails), k = 6
// (k² = 36, where the covariance divides by k² instead of multiplying
// by its reciprocal), crop margins, and constant blocks (sd = 0 gates
// the correlation).
func TestPairBlockHeightBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range []struct {
		rows, cols, k int
		constBlocks   bool
	}{
		{88, 104, 8, false}, // 11×13 = 143 blocks, B mod 4 = 3
		{72, 72, 8, false},  // 81 blocks, B mod 4 = 1
		{80, 88, 8, false},  // 110 blocks, B mod 4 = 2
		{88, 104, 8, true},
		{54, 54, 6, false},  // 81 blocks of k² = 36
		{67, 79, 6, true},   // 11×13 blocks of k² = 36 plus crop margins
		{60, 66, 6, false},  // 110 blocks of k² = 36
		{104, 104, 8, true}, // 169 blocks: two 128-row blocks
	} {
		buf := grid.NewBuffer(c.rows, c.cols)
		for i := range buf.Data {
			buf.Data[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(20)))
		}
		tl, err := grid.MakeBlocking(buf, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if c.constBlocks {
			// Every third block holds one value.
			for r := 0; r < tl.Br*c.k; r++ {
				for col := 0; col < tl.Bc*c.k; col++ {
					if blk := (r/c.k)*tl.Bc + col/c.k; blk%3 == 0 {
						buf.Data[r*c.cols+col] = float64(blk)
					}
				}
			}
		}
		name := fmt.Sprintf("%dx%d/k=%d/const=%v", c.rows, c.cols, c.k, c.constBlocks)
		checkPairBlockHeights[float64](t, name+"/f64", buf, &tl, c.constBlocks)
		checkPairBlockHeights[float32](t, name+"/f32", buf, &tl, c.constBlocks)
	}
}

func checkPairBlockHeights[F linalg.Float](t *testing.T, name string, buf *grid.Buffer, tl *grid.Blocking, constBlocks bool) {
	t.Helper()
	b, k2 := tl.NumBlocks(), tl.K*tl.K
	gm, gsd := stats.MeanStd(buf.Data)
	vecs := tl.VecAll()
	scratch := func() *dsScratch[F] {
		s := getScratch[F](b, k2)
		for i, v := range vecs {
			for x, e := range v {
				s.vecs[i][x] = F(e)
			}
		}
		fillBlockStats(s, gm, gsd, b, tl.Bc)
		return s
	}

	ref := scratch()
	defer putScratch(ref)
	zeroSd := 0
	for i := 0; i < b; i++ {
		if ref.sd[i] == 0 {
			zeroSd++
		}
	}
	if constBlocks != (zeroSd > 0) {
		t.Fatalf("%s: %d blocks with sd = 0", name, zeroSd)
	}
	gram := make([]F, b*b)
	vt := make([]F, b*k2)
	linalg.TransposeInto(ref.vecs, vt)
	for lo := 0; lo < b; lo += symPanelRows {
		hi := min(lo+symPanelRows, b)
		linalg.GramBlockT(ref.vecs, vt, lo, hi, 0, hi, gram[lo*b:], b)
	}

	for _, height := range []int{symPanelRows, pairBlockRows, (b + symPanelRows - 1) / symPanelRows * symPanelRows} {
		for _, workers := range []int{1, 4} {
			s := scratch()
			s.pairBlocks(b, workers, height)
			for i := 0; i < b; i++ {
				wInter, scBlock := refPairRow(ref, gram, i)
				if math.Float64bits(s.wInter[i]) != math.Float64bits(wInter) {
					t.Errorf("%s height=%d workers=%d: wInter[%d]: %x, reference %x", name, height, workers, i,
						math.Float64bits(s.wInter[i]), math.Float64bits(wInter))
				}
				if math.Float64bits(s.scBlock[i]) != math.Float64bits(scBlock) {
					t.Errorf("%s height=%d workers=%d: scBlock[%d]: %x, reference %x", name, height, workers, i,
						math.Float64bits(s.scBlock[i]), math.Float64bits(scBlock))
				}
			}
			putScratch(s)
		}
	}
}
