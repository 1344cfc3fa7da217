package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
	"unsafe"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/perfmodel"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/server"
	"github.com/crestlab/crest/internal/stats"
	"github.com/crestlab/crest/internal/synthdata"
)

// The replays re-run one op's inputs through each layer's public
// functions, in request-path order, one call at a time on one core so
// every kernel replay and the whole-call replay it is subtracted from run
// under the same conditions.
const (
	// blockEdge is the predictors' default block edge k.
	blockEdge = 8
	// entropyBins is the histogram resolution the predictors' buffer-level
	// entropy estimators use at the default configuration.
	entropyBins = 1024
	// gramPanelRows is the panel height the predictors fill the symmetric
	// Gram matrix in.
	gramPanelRows = 16
	// estimateReps is how many model evaluations one core.estimate_us
	// sample averages: one takes about a microsecond.
	estimateReps = 1000
)

// replayer collects per-layer samples of the sampled ops, recording each
// replayed call as a span of the op's request ID.
type replayer struct {
	tr      *tracer
	rid     string
	parent  int
	samples map[string][]float64
	gram64  []float64
	gram32  []float32
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, samples: make(map[string][]float64)}
}

// start opens the replay of one op.
func (r *replayer) start(rid string) func() {
	r.rid = rid
	r.parent = r.tr.begin("replay", rid, -1, 0)
	return func() { r.tr.end(r.parent) }
}

func (r *replayer) add(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

// span times fn as a replay span and returns its milliseconds.
func (r *replayer) span(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	r.tr.record("replay."+name, r.rid, r.parent, start, end)
	return float64(end.Sub(start)) / 1e6
}

// time is span plus a sample of metric.
func (r *replayer) time(metric string, fn func()) float64 {
	ms := r.span(metric, fn)
	r.add(metric, ms)
	return ms
}

// serial is the estimator's predictor configuration on one worker.
func serial(est *core.Estimator) predictors.Config {
	cfg := est.PredictorConfig()
	cfg.Workers = 1
	return cfg
}

// jsonRequest replays the server's front half on a JSON body: the strict
// decode into server.EstimateRequest, then FromSlice and Validate.
func (r *replayer) jsonRequest(body []byte) (*grid.Buffer, error) {
	var req server.EstimateRequest
	var err error
	r.time("server.json_decode_ms", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	var buf *grid.Buffer
	r.time("grid.build_validate_ms", func() {
		if buf, err = grid.FromSlice(req.Rows, req.Cols, req.Data); err == nil {
			err = buf.Validate(grid.DefaultValidation)
		}
	})
	return buf, err
}

// f64 replays the in-memory float64 feature path of one buffer at its
// bounds: global moments, block kernels, entropies, then one whole
// ComputeDataset call. The residual is the part of that call the kernel
// replays do not cover, mostly the scalar float64 pair reduce.
func (r *replayer) f64(buf *grid.Buffer, epses []float64, est *core.Estimator) error {
	cfg := serial(est)
	var gm, gsd float64
	kern := r.time("stats.mean_std_ms", func() { gm, gsd = stats.MeanStd(buf.Data) })
	blk, err := grid.MakeBlocking(buf, blockEdge)
	if err != nil {
		return err
	}
	kern += replayKernels(r, blk.VecAll(), blk.Bc, gm, gsd)
	r.time("stats.histogram_entropy_ms", func() { stats.HistogramEntropy(buf.Data, entropyBins) })
	for _, eps := range epses {
		r.time("stats.quantized_entropy_ms", func() { stats.QuantizedEntropy(buf.Data, eps) })
	}
	var df predictors.DatasetFeatures
	allocKB, ms := allocs(func() float64 {
		return r.span("predictors.dataset", func() { df, err = predictors.ComputeDataset(buf, cfg) })
	})
	if err != nil {
		return err
	}
	r.add("predictors.residual_ms", ms-kern)
	r.add("predictors.alloc_kb_per_call", allocKB)
	d, err := predictors.ComputeEB(buf, epses[0], cfg)
	if err != nil {
		return err
	}
	return r.estimate(est, predictors.Combine(df, d).Vector())
}

// stream replays a CRBS body: the chunk decode alone, the whole float32
// stream featurization, and the kernels and entropies of its first slice.
func (r *replayer) stream(body []byte, eps float64, est *core.Estimator) error {
	var hdr grid.StreamHeader
	var first []float32 // slice 0, row-major
	var err error
	dec := r.time("grid.crbs_decode_ms", func() {
		var cr *grid.ChunkReader
		if cr, err = grid.NewChunkReader(bytes.NewReader(body)); err != nil {
			return
		}
		hdr = cr.Header()
		first = make([]float32, hdr.Rows*hdr.Cols)
		row := make([]float32, hdr.Cols)
		for n := 0; ; n++ {
			if err = cr.ReadRow32(row); err != nil {
				break
			}
			if n < hdr.Rows {
				copy(first[n*hdr.Cols:], row)
			}
		}
	})
	if !errors.Is(err, io.EOF) {
		return fmt.Errorf("replay decode: %w", err)
	}
	cr, err := grid.NewChunkReader(bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sfs []predictors.SliceFeatures
	allocKB, ms := allocs(func() float64 {
		return r.span("predictors.stream", func() { sfs, err = predictors.ComputeStream(cr, []float64{eps}, serial(est)) })
	})
	if err != nil {
		return err
	}
	n := float64(len(sfs))
	perSlice := (ms - dec) / n
	r.add("predictors.stream_featurize_ms_per_slice", perSlice)
	r.add("predictors.alloc_kb_per_call", allocKB/n)

	bc := hdr.Cols / blockEdge
	vecs := make([][]float32, (hdr.Rows/blockEdge)*bc)
	for i := range vecs {
		vecs[i] = make([]float32, blockEdge*blockEdge)
	}
	var s, s2 float64
	for i, v := range first {
		x := float64(v)
		s, s2 = s+x, s2+x*x
		if row, col := i/hdr.Cols, i%hdr.Cols; row < len(vecs)/bc*blockEdge && col < bc*blockEdge {
			vecs[row/blockEdge*bc+col/blockEdge][row%blockEdge*blockEdge+col%blockEdge] = v
		}
	}
	gm := s / float64(len(first))
	kern := replayKernels(r, vecs, bc, gm, math.Sqrt(math.Max(0, s2/float64(len(first))-gm*gm)))
	seg := [][]float32{first}
	kern += r.time("stats.histogram_entropy_ms", func() { stats.HistogramEntropySeg(seg, entropyBins) })
	kern += r.time("stats.quantized_entropy_ms", func() { stats.QuantizedEntropySeg(seg, eps) })
	r.add("predictors.residual_ms", perSlice-kern)
	return r.estimate(est, sfs[0].FeaturesAt(0).Vector())
}

// estimate times the model evaluation of one feature vector.
func (r *replayer) estimate(est *core.Estimator, feats []float64) error {
	var err error
	ms := r.span("core.estimate", func() {
		for i := 0; i < estimateReps && err == nil; i++ {
			_, err = est.Estimate(feats)
		}
	})
	r.add("core.estimate_us", 1e3*ms/estimateReps)
	return err
}

// replayKernels replays the block kernels of the dataset features on the
// block matrix vecs (bc blocks per block row), in pipeline order: the
// fused moments pass, the symmetric Gram fill, the float32 pair reduce
// (float32 only; the float64 reduce has no public entry point and stays
// in the residual) and the k²×k² eigensolve. It returns their total
// milliseconds. The Gram operation and byte counts are computed from the
// shape, not measured.
func replayKernels[F linalg.Float](r *replayer, vecs [][]F, bc int, gm, gsd float64) float64 {
	b, k2 := len(vecs), len(vecs[0])
	mean, sd, norm2 := make([]float64, b), make([]float64, b), make([]float64, b)
	lower := make([]float64, k2*(k2+1)/2)
	if gsd == 0 {
		gsd = 1
	}
	total := r.time("linalg.fused_moments_ms", func() {
		linalg.FusedBlockMoments(vecs, gm, gsd, 1/float64(b), mean, sd, norm2, lower)
	})

	vt := make([]F, b*k2)
	gram := gramScratch[F](r, b*b)
	gramMs := r.time("linalg.gram_ms", func() {
		linalg.TransposeInto(vecs, vt)
		for lo := 0; lo < b; lo += gramPanelRows {
			hi := min(lo+gramPanelRows, b)
			linalg.GramBlockT(vecs, vt, lo, hi, 0, hi, gram[lo*b:], b)
		}
		linalg.MirrorLowerUpper(gram, b)
	})
	total += gramMs
	gflop := float64(b) * float64(b+1) / 2 * float64(k2) * 2 / 1e9
	r.add("linalg.gram_gflop", gflop)
	r.add("linalg.gram_mb", float64((b*b+2*b*k2)*int(unsafe.Sizeof(gram[0])))/1e6)
	if gramMs > 0 {
		r.add("linalg.gram_gflop_s", gflop/(gramMs/1e3))
	}

	if g32, ok := any(gram).([]float32); ok {
		posR, posC := make([]float32, b), make([]float32, b)
		n2, m32, inv := make([]float32, b), make([]float32, b), make([]float32, b)
		for i := 0; i < b; i++ {
			posR[i], posC[i] = float32(i/bc), float32(i%bc)
			n2[i], m32[i] = float32(norm2[i]), float32(mean[i])
			if sd[i] > 0 {
				inv[i] = float32(1 / sd[i])
			}
		}
		total += r.time("linalg.pair_reduce_f32_ms", func() {
			for i := 0; i < b; i++ {
				linalg.PairReduceF32(g32[i*b:(i+1)*b], posR, posC, n2, m32, inv, i, float32(1/float64(k2)))
			}
		})
	}

	sigma := linalg.Matrix{Rows: k2, Cols: k2, Data: make([]float64, k2*k2)}
	idx := 0
	for i := 0; i < k2; i++ {
		for j := 0; j <= i; j++ {
			sigma.Data[i*k2+j], sigma.Data[j*k2+i] = lower[idx], lower[idx]
			idx++
		}
	}
	vals, work := make([]float64, k2), make([]float64, k2*k2)
	total += r.time("linalg.eigen_ms", func() { linalg.SymEigenValuesInto(&sigma, vals, work) })
	return total
}

// gramScratch returns the replayer's reusable n-element Gram buffer of
// element type F (a 512×512 float64 buffer's Gram is 128 MB).
func gramScratch[F linalg.Float](r *replayer, n int) []F {
	switch g := any(&r.gram64).(type) {
	case *[]F:
		if cap(*g) < n {
			*g = make([]F, n)
		}
		return (*g)[:n]
	}
	if cap(r.gram32) < n {
		r.gram32 = make([]float32, n)
	}
	return any(r.gram32[:n]).([]F)
}

// allocs runs fn and returns the KB it allocated with fn's result.
func allocs(fn func() float64) (float64, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, v
}

// costModelCheck fits the paper's §IV-C cost model
// O(p²/(k·n_c) + p·k/(n_c·γ) + k⁶/γ) to serial ComputeDataset times at
// the given edges (k = 8, n_c = γ = 1) and reports the share of the
// pairwise term at the largest edge and the fit's relative residual.
func costModelCheck(r *replayer, edges []int) error {
	cfg := predictors.Config{Workers: 1}
	ks := make([]int, len(edges))
	secs := make([]float64, len(edges))
	for i, p := range edges {
		buf := synthdata.Volume("hurricane", hurricaneSpec("TC"), 1, p, p, inputSeed).Slice(0)
		ks[i] = blockEdge
		var ms []float64
		for k := 0; k < 4; k++ {
			var err error
			t := r.span(fmt.Sprintf("perfmodel.dataset_%d", p), func() { _, err = predictors.ComputeDataset(buf, cfg) })
			if err != nil {
				return err
			}
			if k > 0 { // the first call fills the scratch pool
				ms = append(ms, t)
			}
		}
		secs[i] = median(ms) / 1e3
	}
	m := perfmodel.FitMetricCost(edges, ks, secs, 1, 1)
	pMax, k := float64(edges[len(edges)-1]), float64(blockEdge)
	pairs := m.CPairs * math.Pow(pMax, 4) / math.Pow(k, 4)
	if c := m.Cost(edges[len(edges)-1], blockEdge, 1, 1); c > 0 {
		r.add("perfmodel.pairs_term_share_512", pairs/c)
	}
	var num, den float64
	for i, p := range edges {
		d := m.Cost(p, blockEdge, 1, 1) - secs[i]
		num, den = num+d*d, den+secs[i]*secs[i]
	}
	r.add("perfmodel.fit_rel_residual", math.Sqrt(num/den))
	return nil
}
