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

// TestStreamingPathMatchesFullGram holds the float64 full-Gram pass —
// the lower-triangle sweep, serial and with workers — to the streaming
// panel fallback, which folds each full Gram row serially in j order
// (reduceRow), bit for bit on every block. The shapes cover B mod 4 of
// 1, 2 and 3 (ragged kernel tails), k = 6 (k² = 36, where the
// covariance divides by k² instead of multiplying by its reciprocal),
// crop margins, and constant blocks (sd = 0 gates the correlation).
func TestStreamingPathMatchesFullGram(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range []struct {
		rows, cols, k int
		constBlocks   bool
	}{
		{88, 104, 8, false}, // 11×13 = 143 blocks, B mod 4 = 3
		{72, 72, 8, false},  // 81 blocks, B mod 4 = 1
		{80, 88, 8, false},  // 110 blocks, B mod 4 = 2
		{88, 104, 8, true},
		{54, 54, 6, false}, // 81 blocks of k² = 36
		{67, 79, 6, true},  // 11×13 blocks of k² = 36 plus crop margins
		{60, 66, 6, false}, // 110 blocks of k² = 36
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
		b, k2 := tl.NumBlocks(), c.k*c.k
		gm, gsd := stats.MeanStd(buf.Data)
		vecs := tl.VecAll()
		name := fmt.Sprintf("%dx%d/k=%d/const=%v", c.rows, c.cols, c.k, c.constBlocks)

		stream := getScratch[float64](b, k2)
		for i, v := range vecs {
			copy(stream.vecs[i], v)
		}
		fillBlockStats(stream, gm, gsd, b, tl.Bc)
		zeroSd := 0
		for i := 0; i < b; i++ {
			if stream.sd[i] == 0 {
				zeroSd++
			}
		}
		if c.constBlocks != (zeroSd > 0) {
			t.Fatalf("%s: %d blocks with sd = 0", name, zeroSd)
		}
		nPanels := (b + streamPanelRows - 1) / streamPanelRows
		for p := 0; p < nPanels; p++ {
			lo := p * streamPanelRows
			hi := min(lo+streamPanelRows, b)
			panel := getPanel[float64]((hi - lo) * b)
			linalg.GramPanel(stream.vecs, lo, hi, panel)
			for i := lo; i < hi; i++ {
				stream.reduceRow(i, panel[(i-lo)*b:(i-lo+1)*b])
			}
			putPanel(panel)
		}

		for _, workers := range []int{1, 4} {
			full := getScratch[float64](b, k2)
			for i, v := range vecs {
				copy(full.vecs[i], v)
			}
			fillBlockStats(full, gm, gsd, b, tl.Bc)
			full.pairwisePass(b, workers) // b²·8 ≪ budget → full-Gram path
			for i := 0; i < b; i++ {
				if math.Float64bits(full.wInter[i]) != math.Float64bits(stream.wInter[i]) {
					t.Errorf("%s workers=%d: wInter[%d]: full %x, stream %x", name, workers, i,
						math.Float64bits(full.wInter[i]), math.Float64bits(stream.wInter[i]))
				}
				if math.Float64bits(full.scBlock[i]) != math.Float64bits(stream.scBlock[i]) {
					t.Errorf("%s workers=%d: scBlock[%d]: full %x, stream %x", name, workers, i,
						math.Float64bits(full.scBlock[i]), math.Float64bits(stream.scBlock[i]))
				}
			}
			putScratch(full)
		}
		putScratch(stream)
	}
}
