package predictors

import (
	"math"
	"testing"

	"github.com/crestlab/crest/internal/grid"
)

// f32diff_test.go is the float32-vs-float64 differential suite behind
// the documented accuracy contract (DESIGN.md "Performance"): the
// native float32 pipeline must agree with the float64 reference within
// an explicit per-feature bound measured in ULPs of float32, across
// every chunk size and worker count — and must itself be bit-identical
// across those axes. CI runs it under -race next to the streaming
// bit-identity suite.

// ulp32Dist measures |a-b| in units of the float32 ULP at the
// reference magnitude — the resolution a float32-stored input could
// possibly support. Both values are float64 (the features always
// accumulate in float64); the bound says "the f32 pipeline lands
// within N single-precision ULPs of the f64 pipeline".
func ulp32Dist(ref, got float64) float64 {
	d := math.Abs(ref - got)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(ref), math.Abs(got))
	// ULP of float32 at magnitude `scale`: 2^(exp-23), floored at the
	// smallest normal spacing so near-zero features don't divide by 0.
	exp := math.Ilogb(scale)
	ulp := math.Ldexp(1, exp-23)
	if ulp < math.Ldexp(1, -149) {
		ulp = math.Ldexp(1, -149)
	}
	return d / ulp
}

// Per-feature ULP budgets. Because every reduction accumulates in
// float64 on BOTH paths — the pair sums too, which fold widened float32
// Gram entries with the float64 block stats — the only float32-path
// rounding is the ½-ULP storage of each standardized element plus the
// SIMD Gram kernel's FMA contraction; measured drift on the suite's
// shapes stays below 0.15 float32 ULPs (CodingGain 0.13, SD 0.06,
// SC 0.01), so these budgets carry ~100× headroom while still catching
// any accidental float32 accumulation (which would blow past them by
// orders of magnitude).
const (
	maxULPSD    = 16 // Σ over B blocks of w^intra·w^inter terms
	maxULPSC    = 16 // ratio of two Σ-over-B reductions
	maxULPCG    = 16 // log-domain spectrum ratio
	maxULPTrunc = 16 // quantized (% of k²) spectrum truncation
	maxULPDist  = 2  // entropy widens exactly and bins in float64
)

func checkULP(t *testing.T, name string, ref, got float64, bound float64, tag string) {
	t.Helper()
	if math.IsNaN(ref) || math.IsNaN(got) {
		t.Errorf("%s %s: NaN (ref %g, f32 %g)", tag, name, ref, got)
		return
	}
	if d := ulp32Dist(ref, got); d > bound {
		t.Errorf("%s %s: f32 %.17g vs f64 %.17g differ by %.0f float32 ULPs (bound %d)",
			tag, name, got, ref, d, int(bound))
	}
}

// TestFloat32VsFloat64ULPBounds runs the same values through both
// pipelines — float64 in memory vs float32 streamed at chunk sizes
// {1, odd, 32, whole} × workers {1, 8} — and holds every feature to its
// ULP budget.
func TestFloat32VsFloat64ULPBounds(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{96, 96},
		{90, 101}, // cropped on both axes
	}
	const eps = 1e-3
	for _, shape := range shapes {
		buf := mixedMagnitudeBuffer(shape.rows, shape.cols, int64(31*shape.rows+shape.cols))
		// The f64 reference sees the SAME float32-representable values
		// the f32 pipeline sees, so the measured gap is kernel rounding,
		// not input narrowing.
		for i, v := range buf.Data {
			buf.Data[i] = float64(float32(v))
		}
		for _, workers := range []int{1, 8} {
			cfg := Config{K: 8, Workers: workers}
			ref, err := ComputeDataset(buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refD, err := ComputeEB(buf, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunkRows := range []int{1, 7, 32, shape.rows} {
				raw := encodeStream(t, buf, grid.DTypeF32, chunkRows)
				got := streamOnce(t, raw, eps, cfg)
				tag := tagOf(shape.rows, shape.cols, chunkRows, workers)
				checkULP(t, "SD", ref.SD, got.Dataset.SD, maxULPSD, tag)
				checkULP(t, "SC", ref.SC, got.Dataset.SC, maxULPSC, tag)
				checkULP(t, "CodingGain", ref.CodingGain, got.Dataset.CodingGain, maxULPCG, tag)
				checkULP(t, "CovSVDTrunc", ref.CovSVDTrunc, got.Dataset.CovSVDTrunc, maxULPTrunc, tag)
				checkULP(t, "Distortion", refD, got.Distortions[0], maxULPDist, tag)
			}
		}
	}
}

func tagOf(rows, cols, chunk, workers int) string {
	return "shape " + itoa(rows) + "x" + itoa(cols) +
		" chunk=" + itoa(chunk) + " workers=" + itoa(workers)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFloat32DeterminismAcrossChunksAndWorkers pins the float32 twin of
// the float64 determinism contract: every chunk size and worker count
// must produce the SAME bits as the workers=1 whole-chunk stream, and so
// must the float32 core fed the narrowed slice in memory. (float32 vs
// float64 is ULP-bounded; float32 vs itself is exact.)
func TestFloat32DeterminismAcrossChunksAndWorkers(t *testing.T) {
	buf := mixedMagnitudeBuffer(90, 101, 77)
	const eps = 1e-3
	base := streamOnce(t, encodeStream(t, buf, grid.DTypeF32, buf.Rows), eps, Config{K: 8, Workers: 1})
	narrow := make([]float32, len(buf.Data))
	for i, v := range buf.Data {
		narrow[i] = float32(v)
	}
	for _, workers := range []int{1, 8} {
		cfg := Config{K: 8, Workers: workers}
		inMem, dist, err := featurize(buf.Rows, buf.Cols, narrow, []float64{eps}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBitIdentical(t, base.Dataset, inMem, workers, -1)
		if math.Float64bits(dist[0]) != math.Float64bits(base.Distortions[0]) {
			t.Errorf("workers=%d in memory: f32 distortion not bit-stable: %.17g vs %.17g",
				workers, dist[0], base.Distortions[0])
		}
		for _, chunkRows := range []int{1, 7, 32, buf.Rows} {
			raw := encodeStream(t, buf, grid.DTypeF32, chunkRows)
			got := streamOnce(t, raw, eps, cfg)
			checkBitIdentical(t, base.Dataset, got.Dataset, workers, chunkRows)
			if math.Float64bits(got.Distortions[0]) != math.Float64bits(base.Distortions[0]) {
				t.Errorf("workers=%d chunk=%d: f32 distortion not bit-stable: %.17g vs %.17g",
					workers, chunkRows, got.Distortions[0], base.Distortions[0])
			}
		}
	}
}
