package predictors

import (
	"math"
	"testing"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/stats"
)

// benchBuffer synthesizes a smooth-plus-noise field of the given edge,
// deterministic so timings are comparable across runs.
func benchBuffer(edge int) *grid.Buffer {
	buf := grid.NewBuffer(edge, edge)
	for r := 0; r < edge; r++ {
		for c := 0; c < edge; c++ {
			x := float64(r) / float64(edge)
			y := float64(c) / float64(edge)
			v := math.Sin(7*x)*math.Cos(5*y) + 0.1*math.Sin(113*(x+2*y))
			buf.Set(r, c, v)
		}
	}
	return buf
}

func benchComputeDataset(b *testing.B, edge int) {
	buf := benchBuffer(edge)
	cfg := Config{K: 8, Workers: 1}
	b.SetBytes(int64(buf.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeDataset(buf, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeDataset256(b *testing.B) { benchComputeDataset(b, 256) }
func BenchmarkComputeDataset512(b *testing.B) { benchComputeDataset(b, 512) }

// BenchmarkPairPassF64 times the pairwise pass — the lower Gram fill and
// the float64 sweep, 128 rows at a time — on the blocks (k² = 64) of a
// smooth field: float64 at B = 1024 (a 256×256 buffer) and B = 4096
// (512×512), and float32 at B = 1024 (a stream slice), whose Gram rows
// are widened before the sweep. The fill runs on GOMAXPROCS workers, so
// -cpu sets them.
func BenchmarkPairPassF64(b *testing.B) {
	b.Run("f64/B=1024", func(b *testing.B) { benchPairPass[float64](b, 256) })
	b.Run("f64/B=4096", func(b *testing.B) { benchPairPass[float64](b, 512) })
	b.Run("f32/B=1024", func(b *testing.B) { benchPairPass[float32](b, 256) })
}

func benchPairPass[F linalg.Float](b *testing.B, edge int) {
	buf := benchBuffer(edge)
	tl, err := grid.MakeBlocking(buf, 8)
	if err != nil {
		b.Fatal(err)
	}
	nb := tl.NumBlocks()
	s := getScratch[F](nb, 64)
	defer putScratch(s)
	for i, v := range tl.VecAll() {
		for x, e := range v {
			s.vecs[i][x] = F(e)
		}
	}
	gm, gsd := stats.MeanStd(buf.Data)
	fillBlockStats(s, gm, gsd, nb, tl.Bc)
	s.pairwisePass(nb, 0) // size the pooled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pairwisePass(nb, 0)
	}
}
