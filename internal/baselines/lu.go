package baselines

import (
	"math"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/huffman"
	"github.com/crestlab/crest/internal/quant"
)

// Lu is the white-box baseline of Lu et al. (§III): it executes the
// SZ2-style prediction and quantization stages — "quantities that require
// nearly running the entire compressor" — and prices the stream from the
// resulting Huffman-tree statistics and misprediction (outlier) counts.
// It is analytic (no per-field training) and hard-wired to the SZ2 code
// structure, so applying it to any other compressor family produces the
// large systematic errors of Table II, and the paper excludes it from
// non-SZ comparisons in Fig. 7.
type Lu struct{}

// NewLu returns the Lu baseline.
func NewLu() *Lu { return &Lu{} }

// Name implements Method.
func (l *Lu) Name() string { return "lu" }

// ConcurrentPredictSafe implements ConcurrentPredictor: the estimate is
// recomputed from scratch per call with no shared state.
func (l *Lu) ConcurrentPredictSafe() bool { return true }

// Fit implements Method; the estimate is analytic.
func (l *Lu) Fit(bufs []*grid.Buffer, crs []float64, eps float64) error { return nil }

// Predict implements Method: run Lorenzo prediction + quantization over
// the buffer, then price table + payload + outliers from the Huffman code
// statistics.
func (l *Lu) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	q := quant.New(eps, 0)
	rows, cols := buf.Rows, buf.Cols
	recon := make([]float64, rows*cols)
	codes := make([]uint32, 0, rows*cols)
	outliers := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var pred float64
			if i > 0 && j > 0 {
				pred = recon[(i-1)*cols+j] + recon[i*cols+j-1] - recon[(i-1)*cols+j-1]
			} else if i > 0 {
				pred = recon[(i-1)*cols+j]
			} else if j > 0 {
				pred = recon[i*cols+j-1]
			}
			x := buf.Data[i*cols+j]
			code, ok := q.Quantize(x - pred)
			if !ok {
				outliers++
				codes = append(codes, quant.OutlierCode)
				recon[i*cols+j] = x
				continue
			}
			codes = append(codes, code)
			recon[i*cols+j] = pred + q.Dequantize(code)
		}
	}
	payloadBits := huffman.EncodedBits(codes)
	// Huffman table: roughly 40 bits per tree node; the node count is the
	// internal statistic Lu's model keys on.
	freqs := make(map[uint32]bool, 256)
	for _, c := range codes {
		freqs[c] = true
	}
	nodes := 2*len(freqs) - 1
	if nodes < 1 {
		nodes = 1
	}
	totalBits := payloadBits + float64(64*outliers) + float64(40*nodes) + 512
	cr := float64(64*rows*cols) / totalBits
	if math.IsNaN(cr) || cr <= 0 {
		cr = 1
	}
	return cr, nil
}

var _ Method = (*Lu)(nil)
var _ Method = (*Tao)(nil)
var _ Method = (*Underwood)(nil)
var _ Method = (*Proposed)(nil)

// SupportsCompressor reports whether Lu's white-box model applies to the
// named compressor family (SZ2/ZFP-style only, per the paper).
func (l *Lu) SupportsCompressor(name string) bool {
	return name == "szlorenzo" || name == "zfplike"
}
