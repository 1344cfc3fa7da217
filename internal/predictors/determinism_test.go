package predictors

import (
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

// TestStreamingPathMatchesFullGram forces the streaming panel fallback by
// exercising it directly and checks it is bit-identical to the pooled
// full-Gram path on the same scratch contents.
func TestStreamingPathMatchesFullGram(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := grid.NewBuffer(88, 104) // 11×13 = 143 blocks: ragged panels
	for i := range buf.Data {
		buf.Data[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(20)))
	}
	tl, err := grid.MakeBlocking(buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := tl.NumBlocks()
	k2 := 64
	gm, gsd := stats.MeanStd(buf.Data)
	vecs := tl.VecAll()

	full := getScratch[float64](b, k2)
	for i, v := range vecs {
		copy(full.vecs[i], v)
	}
	fillBlockStats(full, gm, gsd, b, tl.Bc)
	full.fk2, full.invK2 = float64(k2), 1/float64(k2)
	full.pairwisePass(b, 4) // b²·8 ≪ budget → full-Gram path

	stream := getScratch[float64](b, k2)
	for i, v := range vecs {
		copy(stream.vecs[i], v)
	}
	fillBlockStats(stream, gm, gsd, b, tl.Bc)
	stream.fk2, stream.invK2 = float64(k2), 1/float64(k2)
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

	for i := 0; i < b; i++ {
		if math.Float64bits(full.wInter[i]) != math.Float64bits(stream.wInter[i]) {
			t.Errorf("wInter[%d]: full %x, stream %x", i,
				math.Float64bits(full.wInter[i]), math.Float64bits(stream.wInter[i]))
		}
		if math.Float64bits(full.scBlock[i]) != math.Float64bits(stream.scBlock[i]) {
			t.Errorf("scBlock[%d]: full %x, stream %x", i,
				math.Float64bits(full.scBlock[i]), math.Float64bits(stream.scBlock[i]))
		}
	}
	putScratch(full)
	putScratch(stream)
}
