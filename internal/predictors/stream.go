package predictors

// stream.go is the one front half of the predictor pipeline: rows are
// scattered straight into the vectorized block matrix V as they arrive,
// whether from an io.Reader-backed grid.ChunkReader (ForEachSlice) or
// from an in-memory buffer (featurize, behind ComputeDataset). A stream's
// raw row-major buffer is never materialized: working memory per slice is
// V plus the pooled kernel scratch — independent of how many slices (3D
// planes or time steps) the stream carries, which is what makes a
// multi-GB volume estimable on a machine that holds one slice.
//
// Bit-identity contract (enforced by the differential and golden suites):
// for every chunk size and worker count, the features are the same bits
// however the rows arrive, because each reduction is fed the identical
// values in the identical order:
//
//   - The global moments accumulate s += v, s2 += v*v per (widened)
//     element in row-major arrival order — exactly stats.MeanStd's
//     single pass.
//   - Block vectorization places each element at the same V coordinate a
//     grid.Blocking.Vec copy would; standardization, the per-block
//     moments, and the second-moment triangle then run as one fused
//     traversal (linalg.FusedBlockMoments).
//   - The pairwise/Gram/eigen back half (finishDataset) is bit-identical
//     across worker counts.
//   - The entropy estimators are functions of the value multiset only
//     (see stats/segments.go), so feeding them V-plus-crop instead of
//     the row-major buffer changes nothing.
//
// The core is generic over the element type. float64 streams take the
// bit-exact reference path, and the in-memory ComputeDataset is this same
// core fed row by row from the buffer (featurize), so in-memory and
// streamed float64 features are bit-identical by construction. float32
// streams (dtype 1) are consumed natively — payload bits land in a
// float32 V at half the memory traffic. Against the float64 path over the
// widened values, float32 features carry the documented ULP-level
// differences of the narrow kernels (see DESIGN.md "Performance").

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/stats"
)

// streamFeaturizer is the precision-generic core behind StreamFeaturizer,
// ForEachSlice and the in-memory ComputeDataset. It is not safe for
// concurrent use; Reset re-arms it for the next slice of the same shape
// reusing all of its memory, so a long stream costs a constant number of
// allocations per slice.
type streamFeaturizer[F linalg.Float] struct {
	cfg        Config
	rows, cols int
	k, br, bc  int
	b, k2      int

	s *dsScratch[F]

	rowIdx int
	// Global moments accumulated in row-major element order (the exact
	// stats.MeanStd pass over the equivalent in-memory buffer).
	sum, sum2 float64
	// crop holds the raw values outside the k-divisible region (right
	// margin and bottom rows) so the error-bound entropies see the whole
	// slice, exactly like the in-memory path.
	crop []F
	// segs is the pooled segment list handed to the entropy estimators.
	segs [][]F

	tStart   time.Time
	finished bool
}

// init shapes f for rows×cols slices under cfg and arms it, keeping any
// crop and segment capacity f already holds. It is the one shape check of
// every featurizer: like grid.NewBlocking it crops to the largest multiple
// of K and rejects slices smaller than one block. what names the input in
// the error text ("slice" for streams, "buffer" for in-memory data).
func (f *streamFeaturizer[F]) init(rows, cols int, cfg Config, what string) error {
	cfg = cfg.withDefaults()
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("predictors: %w: %s shape %dx%d", crerr.ErrInvalidBuffer, what, rows, cols)
	}
	br, bc := rows/cfg.K, cols/cfg.K
	if br == 0 || bc == 0 {
		return fmt.Errorf("predictors: %w: %dx%d %s with k=%d", grid.ErrNotTileable, rows, cols, what, cfg.K)
	}
	crop, segs := f.crop, f.segs
	*f = streamFeaturizer[F]{
		cfg:  cfg,
		rows: rows, cols: cols,
		k: cfg.K, br: br, bc: bc,
		b: br * bc, k2: cfg.K * cfg.K,
		crop: crop[:0], segs: segs[:0],
	}
	f.arm()
	return nil
}

// corePool64/corePool32 recycle whole featurizer cores across in-memory
// calls and streams, so a warm call allocates no core struct. The public
// NewStreamFeaturizer deliberately does NOT use the pools: it hands the
// core to the caller, and a pooled object must never alias a caller-held
// one.
var (
	corePool64 = sync.Pool{New: func() any { return new(streamFeaturizer[float64]) }}
	corePool32 = sync.Pool{New: func() any { return new(streamFeaturizer[float32]) }}
)

// getCore is init on a core from the pools; release with putCore (not
// Close).
func getCore[F linalg.Float](rows, cols int, cfg Config, what string) (*streamFeaturizer[F], error) {
	var f *streamFeaturizer[F]
	switch p := any(&f).(type) {
	case **streamFeaturizer[float64]:
		*p = corePool64.Get().(*streamFeaturizer[float64])
	case **streamFeaturizer[float32]:
		*p = corePool32.Get().(*streamFeaturizer[float32])
	}
	if err := f.init(rows, cols, cfg, what); err != nil {
		putCore(f)
		return nil, err
	}
	return f, nil
}

// putCore releases a getCore featurizer and its scratch to the pools.
func putCore[F linalg.Float](f *streamFeaturizer[F]) {
	f.Close()
	switch t := any(f).(type) {
	case *streamFeaturizer[float64]:
		corePool64.Put(t)
	case *streamFeaturizer[float32]:
		corePool32.Put(t)
	}
}

// arm checks out pooled scratch and zeroes the per-slice state.
// getScratch re-carves the block rows from the backing for the current
// shape, so a pooled scratch can never leak geometry from a differently
// shaped earlier call.
func (f *streamFeaturizer[F]) arm() {
	f.s = getScratch[F](f.b, f.k2)
	f.rowIdx = 0
	f.sum, f.sum2 = 0, 0
	f.crop = f.crop[:0]
	f.finished = false
	f.tStart = time.Now()
}

// AddRow feeds the next row (length cols) of the current slice. The row
// is consumed before return; the caller may reuse its backing storage.
// Non-finite values fail fast with a typed error — the strict
// DefaultValidation policy of the in-memory path — so a poisoned stream
// can never produce partial or NaN features.
func (f *streamFeaturizer[F]) AddRow(row []F) error {
	if f.finished {
		return fmt.Errorf("predictors: %w: AddRow after Finish", crerr.ErrInvalidBuffer)
	}
	if len(row) != f.cols {
		return fmt.Errorf("predictors: %w: row length %d, want %d", crerr.ErrInvalidBuffer, len(row), f.cols)
	}
	if f.rowIdx >= f.rows {
		return fmt.Errorf("predictors: %w: row %d past slice of %d rows", crerr.ErrInvalidBuffer, f.rowIdx, f.rows)
	}
	// Accumulate into locals and commit only once the whole row has
	// passed: a rejected row must leave no trace in the global moments,
	// or a caller retrying with the clean row would get shifted features.
	// The addition order is unchanged, so the result bits are too.
	sum, sum2 := f.sum, f.sum2
	for c, raw := range row {
		v := float64(raw)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("predictors: %w: value at row %d col %d is %g",
				crerr.ErrNonFiniteData, f.rowIdx, c, v)
		}
		sum += v
		sum2 += v * v
	}
	f.sum, f.sum2 = sum, sum2
	r := f.rowIdx
	if r < f.br*f.k {
		// Scatter the in-grid prefix into the block matrix: element
		// (r, c) lands at V[(r/k)·Bc + c/k][(r%k)·k + c%k], the exact
		// coordinate a Blocking.Vec copy assigns it.
		rowBase := (r / f.k) * f.bc
		within := (r % f.k) * f.k
		for bcIdx := 0; bcIdx < f.bc; bcIdx++ {
			copy(f.s.vecs[rowBase+bcIdx][within:within+f.k], row[bcIdx*f.k:(bcIdx+1)*f.k])
		}
		f.crop = append(f.crop, row[f.bc*f.k:]...)
	} else {
		// Bottom crop rows: outside every block, but still part of the
		// global moments and the error-bound entropies.
		f.crop = append(f.crop, row...)
	}
	f.rowIdx++
	return nil
}

// RowsFed returns how many rows of the current slice have arrived.
func (f *streamFeaturizer[F]) RowsFed() int { return f.rowIdx }

// Finish evaluates the four dataset predictors — and one generic
// distortion per requested error bound — for the completed slice. The
// distortions slice is aligned with eps. After Finish the featurizer
// must be Reset (next slice) or Closed (done).
func (f *streamFeaturizer[F]) Finish(eps ...float64) (DatasetFeatures, []float64, error) {
	if f.finished {
		return DatasetFeatures{}, nil, fmt.Errorf("predictors: %w: Finish called twice", crerr.ErrInvalidBuffer)
	}
	if f.rowIdx != f.rows {
		return DatasetFeatures{}, nil, fmt.Errorf("predictors: %w: Finish after %d of %d rows",
			crerr.ErrInvalidBuffer, f.rowIdx, f.rows)
	}
	for _, e := range eps {
		if err := validateEps(e); err != nil {
			return DatasetFeatures{}, nil, err
		}
	}
	f.finished = true
	s := f.s

	// Global standardization from the streamed moments: the accumulation
	// order was row-major element order, so gm/gsd carry the same bits as
	// stats.MeanStd over the assembled buffer. Finite values whose sum or
	// squares overflow leave gm or gv Inf or NaN, which would standardize
	// V to NaN, so the slice is refused before any entropy or back-half
	// work.
	n := float64(f.rows) * float64(f.cols)
	gm := f.sum / n
	gv := f.sum2/n - gm*gm
	if math.IsNaN(gm) || math.IsInf(gm, 0) || math.IsNaN(gv) || math.IsInf(gv, 0) {
		return DatasetFeatures{}, nil, fmt.Errorf("predictors: %w: global moments overflow float64 (mean %g, variance %g)",
			crerr.ErrNonFiniteData, gm, gv)
	}
	if gv < 0 {
		gv = 0 // numerical guard (same as stats.MeanStd)
	}

	// Error-bound entropies run on the raw retained values (V is still
	// unstandardized here), matching ComputeEB over the whole buffer.
	var distortions []float64
	if len(eps) > 0 {
		if cap(f.segs) < f.b+1 {
			f.segs = make([][]F, 0, f.b+1)
		}
		f.segs = f.segs[:0]
		for i := 0; i < f.b; i++ {
			f.segs = append(f.segs, s.vecs[i])
		}
		if len(f.crop) > 0 {
			f.segs = append(f.segs, f.crop)
		}
		distortions = make([]float64, len(eps))
		t0 := time.Now()
		h := stats.HistogramEntropySeg(f.segs, ebBins)
		for i, e := range eps {
			distortions[i] = distortion(h, stats.QuantizedEntropySeg(f.segs, e))
		}
		obsDist.Observe(time.Since(t0).Seconds())
	}

	// The fused traversal standardizes V and fills every per-block
	// moment plus the second-moment triangle in one pass.
	fillBlockStats(s, gm, math.Sqrt(gv), f.b, f.bc)
	setup := time.Since(f.tStart).Seconds()
	df := finishDataset(s, f.b, f.k2, f.cfg.Workers, setup)
	return df, distortions, nil
}

// Reset re-arms the featurizer for the next slice of the same shape,
// reusing the held scratch — the piece that keeps a long stream's
// allocations per slice constant.
func (f *streamFeaturizer[F]) Reset() {
	if f.s == nil {
		f.arm()
		return
	}
	f.rowIdx = 0
	f.sum, f.sum2 = 0, 0
	f.crop = f.crop[:0]
	f.finished = false
	f.tStart = time.Now()
}

// Close releases the pooled scratch. The featurizer is unusable after.
func (f *streamFeaturizer[F]) Close() {
	if f.s != nil {
		putScratch(f.s)
		f.s = nil
	}
}

// StreamFeaturizer computes the predictor features of one 2D slice from
// float64 rows fed incrementally — the bit-exact reference path. See
// streamFeaturizer for the reuse contract.
type StreamFeaturizer struct {
	streamFeaturizer[float64]
}

// NewStreamFeaturizer prepares a float64 featurizer for rows×cols slices
// under cfg.
func NewStreamFeaturizer(rows, cols int, cfg Config) (*StreamFeaturizer, error) {
	f := new(StreamFeaturizer)
	if err := f.init(rows, cols, cfg, "slice"); err != nil {
		return nil, err
	}
	return f, nil
}

// SliceFeatures are the streamed predictor outputs of one slice.
type SliceFeatures struct {
	// Step is the slice index within the stream (z plane or time step).
	Step int
	// Dataset carries the four error-bound-agnostic predictors.
	Dataset DatasetFeatures
	// Distortions holds one generic distortion per requested error
	// bound, aligned with the eps argument.
	Distortions []float64
}

// FeaturesAt assembles the full covariate vector for error bound i.
func (sf SliceFeatures) FeaturesAt(i int) Features {
	return Combine(sf.Dataset, sf.Distortions[i])
}

// readRowInto reads the next stream row at the core's native precision.
func readRowInto[F linalg.Float](cr *grid.ChunkReader, row []F) error {
	switch r := any(row).(type) {
	case []float64:
		return cr.ReadRow(r)
	case []float32:
		return cr.ReadRow32(r)
	}
	panic("predictors: unreachable row type")
}

// ForEachSlice drains a chunk stream slice by slice, invoking fn with
// each slice's features as soon as its last row arrives. Working memory
// is one slice plus pooled scratch, independent of the stream's length;
// fn returning an error aborts the drain. The row buffer and featurizer
// are reused across slices.
//
// dtype-1 (float32) streams are processed natively at float32: half the
// memory traffic, features within the documented ULP bounds of the
// float64 path instead of bit-equal to it.
func ForEachSlice(cr *grid.ChunkReader, eps []float64, cfg Config, fn func(SliceFeatures) error) error {
	if cr.Header().DType == grid.DTypeF32 {
		return forEachSlice[float32](cr, eps, cfg, fn)
	}
	return forEachSlice[float64](cr, eps, cfg, fn)
}

func forEachSlice[F linalg.Float](cr *grid.ChunkReader, eps []float64, cfg Config, fn func(SliceFeatures) error) error {
	hdr := cr.Header()
	f, err := getCore[F](hdr.Rows, hdr.Cols, cfg, "slice")
	if err != nil {
		return err
	}
	defer putCore(f)
	row := make([]F, hdr.Cols)
	step := 0
	for {
		err := readRowInto(cr, row)
		if err == io.EOF {
			if f.RowsFed() != 0 {
				// Unreachable with a contract-honoring ChunkReader (EOF
				// only lands on slice boundaries), kept as a guard.
				return fmt.Errorf("predictors: %w: stream ended mid-slice", crerr.ErrStreamCorrupt)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if err := f.AddRow(row); err != nil {
			return err
		}
		if f.RowsFed() == hdr.Rows {
			df, dist, err := f.Finish(eps...)
			if err != nil {
				return err
			}
			if err := fn(SliceFeatures{Step: step, Dataset: df, Distortions: dist}); err != nil {
				return err
			}
			step++
			f.Reset()
		}
	}
}

// ComputeStream drains a chunk stream and returns the per-slice features.
// It is ForEachSlice with accumulation — the convenience shape for CLI
// and tests; servers that must bound memory strictly use the callback.
func ComputeStream(cr *grid.ChunkReader, eps []float64, cfg Config) ([]SliceFeatures, error) {
	var out []SliceFeatures
	err := ForEachSlice(cr, eps, cfg, func(sf SliceFeatures) error {
		out = append(out, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
