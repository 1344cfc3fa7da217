package predictors

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
)

// mixedMagnitudeBuffer builds a buffer whose values span ~24 binades so
// any reassociation or reordering of a floating-point reduction shows up
// in the low bits.
func mixedMagnitudeBuffer(rows, cols int, seed int64) *grid.Buffer {
	rng := rand.New(rand.NewSource(seed))
	buf := grid.NewBuffer(rows, cols)
	for i := range buf.Data {
		buf.Data[i] = rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(24)))
	}
	return buf
}

func encodeStream(t *testing.T, buf *grid.Buffer, dt grid.DType, chunkRows int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := grid.EncodeBuffer(&b, buf, dt, chunkRows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func streamOnce(t *testing.T, raw []byte, eps float64, cfg Config) SliceFeatures {
	t.Helper()
	cr, err := grid.NewChunkReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ComputeStream(cr, []float64{eps}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d slices, want 1", len(out))
	}
	return out[0]
}

// TestStreamingDifferentialBitIdentity is the streaming twin of
// TestReductionDeterminismAcrossWorkers: for float64 input, the
// chunk-fed path must return bit-identical features to the in-memory
// ComputeDataset/ComputeEB for every chunk size and worker count,
// including shapes the blocking crops. Run under -race in CI.
func TestStreamingDifferentialBitIdentity(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{96, 96},  // exactly tileable
		{90, 101}, // cropped on both axes
	}
	const eps = 1e-3
	for _, shape := range shapes {
		buf := mixedMagnitudeBuffer(shape.rows, shape.cols, int64(shape.rows*1000+shape.cols))
		for _, workers := range []int{1, 8} {
			cfg := Config{K: 8, Workers: workers}
			want, err := ComputeDataset(buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantD, err := ComputeEB(buf, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunkRows := range []int{1, 32, 7, shape.rows} {
				raw := encodeStream(t, buf, grid.DTypeF64, chunkRows)
				got := streamOnce(t, raw, eps, cfg)
				checkBitIdentical(t, want, got.Dataset, workers, chunkRows)
				if math.Float64bits(got.Distortions[0]) != math.Float64bits(wantD) {
					t.Errorf("shape %dx%d chunk=%d workers=%d: distortion %x (%.17g), want %x (%.17g)",
						shape.rows, shape.cols, chunkRows, workers,
						math.Float64bits(got.Distortions[0]), got.Distortions[0],
						math.Float64bits(wantD), wantD)
				}
			}
		}
	}
}

// TestStreamingFloat32NativeContract pins the float32 distortion
// contract: a dtype-1 stream is processed at float32 end to end, yet its
// distortion matches ComputeEB over the widened buffer bit-for-bit,
// because the entropy estimators widen exactly and bin in float64 — the
// entropy is a function of the value multiset.
func TestStreamingFloat32NativeContract(t *testing.T) {
	buf := mixedMagnitudeBuffer(64, 72, 7)
	raw := encodeStream(t, buf, grid.DTypeF32, 5)
	got := streamOnce(t, raw, 1e-2, Config{K: 8, Workers: 4})

	widened := buf.Clone()
	for i, v := range widened.Data {
		widened.Data[i] = float64(float32(v))
	}
	wantD, err := ComputeEB(widened, 1e-2, Config{K: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Distortions[0]) != math.Float64bits(wantD) {
		t.Errorf("widened distortion differs bitwise: %.17g vs %.17g", got.Distortions[0], wantD)
	}
}

// TestStreamingMultiSliceMatchesPerSlice checks a multi-slice (temporal)
// stream yields, slice by slice, exactly the in-memory features of each
// step — and that one featurizer's reuse across slices leaks no state.
func TestStreamingMultiSliceMatchesPerSlice(t *testing.T) {
	const steps = 5
	bufs := make([]*grid.Buffer, steps)
	for i := range bufs {
		bufs[i] = mixedMagnitudeBuffer(48, 56, int64(100+i))
	}
	var b bytes.Buffer
	if err := grid.EncodeBuffers(&b, bufs, grid.DTypeF64, 11); err != nil {
		t.Fatal(err)
	}
	cr, err := grid.NewChunkReader(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8, Workers: 3}
	got, err := ComputeStream(cr, []float64{1e-3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != steps {
		t.Fatalf("got %d slices, want %d", len(got), steps)
	}
	for i, sf := range got {
		if sf.Step != i {
			t.Errorf("slice %d reported step %d", i, sf.Step)
		}
		want, err := ComputeDataset(bufs[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBitIdentical(t, want, sf.Dataset, cfg.Workers, i)
		wantD, err := ComputeEB(bufs[i], 1e-3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sf.Distortions[0]) != math.Float64bits(wantD) {
			t.Errorf("slice %d: distortion differs bitwise", i)
		}
	}
}

// ---------------------------------------------------------------------------
// Chaos coverage: reader faults must surface as typed errors, never as
// partial or NaN features.

// faultAfterReader yields n bytes of src then fails with cause.
type faultAfterReader struct {
	src   io.Reader
	left  int
	cause error
}

func (r *faultAfterReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, r.cause
	}
	if len(p) > r.left {
		p = p[:r.left]
	}
	n, err := r.src.Read(p)
	r.left -= n
	return n, err
}

func TestStreamingMidStreamReadError(t *testing.T) {
	buf := mixedMagnitudeBuffer(64, 64, 3)
	raw := encodeStream(t, buf, grid.DTypeF64, 8)
	cause := errors.New("disk gone")
	for _, cut := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		cr, err := grid.NewChunkReader(&faultAfterReader{src: bytes.NewReader(raw), left: cut, cause: cause})
		if err != nil {
			t.Fatalf("cut=%d: header should decode: %v", cut, err)
		}
		out, err := ComputeStream(cr, []float64{1e-3}, Config{K: 8})
		if err == nil {
			t.Fatalf("cut=%d: expected error, got %d slices", cut, len(out))
		}
		if !errors.Is(err, crerr.ErrStreamCorrupt) {
			t.Errorf("cut=%d: error not typed ErrStreamCorrupt: %v", cut, err)
		}
		if !errors.Is(err, cause) {
			t.Errorf("cut=%d: cause not preserved: %v", cut, err)
		}
		if out != nil {
			t.Errorf("cut=%d: partial features returned alongside error", cut)
		}
	}
}

func TestStreamingTruncatedTrailingChunk(t *testing.T) {
	buf := mixedMagnitudeBuffer(40, 40, 9)
	raw := encodeStream(t, buf, grid.DTypeF64, 13)
	for _, keep := range []int{len(raw) - 1, len(raw) - 40*8, len(raw) - 40*8*5 - 2} {
		cr, err := grid.NewChunkReader(bytes.NewReader(raw[:keep]))
		if err != nil {
			t.Fatalf("keep=%d: header should decode: %v", keep, err)
		}
		out, err := ComputeStream(cr, nil, Config{K: 8})
		if err == nil {
			t.Fatalf("keep=%d: expected truncation error, got %d slices", keep, len(out))
		}
		if !errors.Is(err, crerr.ErrStreamCorrupt) {
			t.Errorf("keep=%d: error not typed ErrStreamCorrupt: %v", keep, err)
		}
		if out != nil {
			t.Errorf("keep=%d: partial features returned alongside error", keep)
		}
	}
}

func TestStreamingNonFiniteRejected(t *testing.T) {
	buf := mixedMagnitudeBuffer(32, 32, 5)
	buf.Data[700] = math.NaN()
	raw := encodeStream(t, buf, grid.DTypeF64, 4)
	cr, err := grid.NewChunkReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ComputeStream(cr, []float64{1e-3}, Config{K: 8})
	if !errors.Is(err, crerr.ErrNonFiniteData) {
		t.Fatalf("want ErrNonFiniteData, got %v", err)
	}
	if out != nil {
		t.Error("features returned for poisoned stream")
	}
}

// TestOverflowingMomentsRejected: finite values whose squares (1e160)
// or sum of squares (1e153 over 64×64) overflow float64 leave the global
// variance NaN or Inf, which standardized every block to NaN and sent
// the eigensolve through all its sweeps. The in-memory and the f64
// stream path must both refuse the slice as non-finite data.
func TestOverflowingMomentsRejected(t *testing.T) {
	for _, scale := range []float64{1e160, 1e153} {
		buf := grid.NewBuffer(64, 64)
		for i := range buf.Data {
			buf.Data[i] = scale * (2 + math.Sin(float64(i)))
		}
		if _, err := ComputeDataset(buf, Config{K: 8}); !errors.Is(err, crerr.ErrNonFiniteData) {
			t.Errorf("scale %g: ComputeDataset: want ErrNonFiniteData, got %v", scale, err)
		}
		cr, err := grid.NewChunkReader(bytes.NewReader(encodeStream(t, buf, grid.DTypeF64, 16)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := ComputeStream(cr, []float64{1e-3}, Config{K: 8})
		if !errors.Is(err, crerr.ErrNonFiniteData) {
			t.Errorf("scale %g: f64 stream: want ErrNonFiniteData, got %v", scale, err)
		}
		if out != nil {
			t.Errorf("scale %g: features returned for an overflowing stream", scale)
		}
	}
}

// TestRejectedRowLeavesNoTrace pins that a row AddRow rejects for a
// non-finite value contributes nothing: retrying with the clean row must
// give the exact bits of a featurizer that never saw the bad one. A row
// whose prefix reached the global moments before the NaN was found
// would shift SD and every standardized feature.
func TestRejectedRowLeavesNoTrace(t *testing.T) {
	const n, badRow, badCol = 32, 5, 20
	buf := mixedMagnitudeBuffer(n, n, 11)
	cfg := Config{K: 8, Workers: 1}
	feed := func(poison bool) (DatasetFeatures, float64) {
		t.Helper()
		f, err := NewStreamFeaturizer(n, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for r := 0; r < n; r++ {
			row := buf.Data[r*n : (r+1)*n]
			if poison && r == badRow {
				bad := append([]float64(nil), row...)
				bad[badCol] = math.NaN()
				if err := f.AddRow(bad); !errors.Is(err, crerr.ErrNonFiniteData) {
					t.Fatalf("NaN row: want ErrNonFiniteData, got %v", err)
				}
				if f.RowsFed() != badRow {
					t.Fatalf("rejected row advanced the row count to %d", f.RowsFed())
				}
			}
			if err := f.AddRow(row); err != nil {
				t.Fatal(err)
			}
		}
		df, dist, err := f.Finish(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return df, dist[0]
	}
	want, wantD := feed(false)
	got, gotD := feed(true)
	checkBitIdentical(t, want, got, 1, badRow)
	if math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Errorf("distortion %.17g after a rejected row, want %.17g", gotD, wantD)
	}
}

// TestStreamFeaturizerReuseIsClean pins that Reset carries no state
// between slices: featurizing A, then B, then A again returns A's exact
// bits both times.
func TestStreamFeaturizerReuseIsClean(t *testing.T) {
	a := mixedMagnitudeBuffer(48, 48, 1)
	bb := mixedMagnitudeBuffer(48, 48, 2)
	f, err := NewStreamFeaturizer(48, 48, Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := func(buf *grid.Buffer) DatasetFeatures {
		t.Helper()
		for r := 0; r < 48; r++ {
			if err := f.AddRow(buf.Data[r*48 : (r+1)*48]); err != nil {
				t.Fatal(err)
			}
		}
		df, _, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		f.Reset()
		return df
	}
	first := run(a)
	run(bb)
	again := run(a)
	checkBitIdentical(t, first, again, 0, 0)
}
