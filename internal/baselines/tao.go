package baselines

import (
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/stats"
)

// Tao is the fast training-free baseline of Tao et al. (§III): it samples
// a fraction of the data blocks, estimates the probability density of the
// quantized values, and prices the stream at the quantized entropy — i.e.
// CR ≈ 64 / H(α(X, 2ε)) bits. It needs no model fit, runs in a fraction of
// a compressor invocation, and — because it ignores prediction and the
// lossless back end — is exceptionally inaccurate, which is exactly the
// trade-off the paper quantifies (MedAPE near 90%).
type Tao struct{}

// Tao samples every taoStride-th block of taoBlock × taoBlock values,
// in raster order: 25% of the blocks.
const (
	taoStride = 4
	taoBlock  = 8
)

// NewTao returns the Tao baseline.
func NewTao() *Tao { return &Tao{} }

// Name implements Method.
func (t *Tao) Name() string { return "tao" }

// ConcurrentPredictSafe implements ConcurrentPredictor: Predict touches no
// shared state.
func (t *Tao) ConcurrentPredictSafe() bool { return true }

// Fit implements Method; the method is training-free.
func (t *Tao) Fit(bufs []*grid.Buffer, crs []float64, eps float64) error { return nil }

// Predict implements Method.
func (t *Tao) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	sample := make([]float64, 0, len(buf.Data)/taoStride+taoBlock*taoBlock)
	nbr := (buf.Rows + taoBlock - 1) / taoBlock
	nbc := (buf.Cols + taoBlock - 1) / taoBlock
	idx := 0
	for br := 0; br < nbr; br++ {
		for bc := 0; bc < nbc; bc++ {
			if idx%taoStride == 0 {
				r1 := minInt((br+1)*taoBlock, buf.Rows)
				c1 := minInt((bc+1)*taoBlock, buf.Cols)
				for i := br * taoBlock; i < r1; i++ {
					for j := bc * taoBlock; j < c1; j++ {
						sample = append(sample, buf.Data[i*buf.Cols+j])
					}
				}
			}
			idx++
		}
	}
	if len(sample) == 0 {
		sample = buf.Data
	}
	h := stats.QuantizedEntropy(sample, 2*eps)
	if h < 0.05 {
		h = 0.05 // floor: near-constant data still pays container overhead
	}
	return 64 / h, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
