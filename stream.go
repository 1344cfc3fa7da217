package crest

import (
	"io"

	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/synthdata"
)

// stream.go is the facade of the out-of-core pipeline: the chunked block
// stream format ("CRBS"), the one-pass streaming featurizer, and the
// online conformal recalibration loop. A multi-GB volume or unbounded
// temporal feed is estimated slice by slice with O(one slice) working
// memory. float64 streams are bit-identical to ComputeFeatures — the
// in-memory path feeds the same one-pass core from the buffer. float32
// streams, the one way native float32 data enters the library, run that
// core at float32 element width and agree with ComputeFeatures over the
// widened values to a few ULP of float32 (see DESIGN.md).

// StreamDType identifies the element encoding of a block stream.
type StreamDType = grid.DType

// Stream element encodings.
const (
	StreamF64 = grid.DTypeF64
	StreamF32 = grid.DTypeF32
)

// StreamHeader describes the shape of a block stream.
type StreamHeader = grid.StreamHeader

// StreamLimits bounds what a stream reader will accept before touching
// payload bytes; zero-value fields select the defaults.
type StreamLimits = grid.StreamLimits

// ChunkReader decodes a block stream row by row or slice by slice.
type ChunkReader = grid.ChunkReader

// ChunkWriter frames buffers into a block stream.
type ChunkWriter = grid.ChunkWriter

// NewChunkReader opens a block stream for reading.
func NewChunkReader(r io.Reader, limits ...StreamLimits) (*ChunkReader, error) {
	return grid.NewChunkReader(r, limits...)
}

// NewChunkWriter opens a block stream for writing; chunkRows <= 0 selects
// the default chunk size.
func NewChunkWriter(w io.Writer, hdr StreamHeader, chunkRows int) (*ChunkWriter, error) {
	return grid.NewChunkWriter(w, hdr, chunkRows)
}

// EncodeBuffers frames bufs (equal shapes, in order) as one stream.
func EncodeBuffers(w io.Writer, bufs []*Buffer, dt StreamDType, chunkRows int) error {
	return grid.EncodeBuffers(w, bufs, dt, chunkRows)
}

// EncodeVolume frames a volume as a stream of its z-slices.
func EncodeVolume(w io.Writer, vol *Volume, dt StreamDType, chunkRows int) error {
	return grid.EncodeVolume(w, vol, dt, chunkRows)
}

// SliceFeatures carries one streamed slice's features and distortions.
type SliceFeatures = predictors.SliceFeatures

// StreamFeaturizer computes one slice's features from incrementally fed
// rows with pooled, reusable working memory.
type StreamFeaturizer = predictors.StreamFeaturizer

// NewStreamFeaturizer prepares a featurizer for rows×cols slices.
func NewStreamFeaturizer(rows, cols int, cfg PredictorConfig) (*StreamFeaturizer, error) {
	return predictors.NewStreamFeaturizer(rows, cols, cfg)
}

// ComputeStreamFeatures featurizes every slice of a block stream at the
// given error bounds, holding one slice of working memory at a time.
func ComputeStreamFeatures(cr *ChunkReader, eps []float64, cfg PredictorConfig) ([]SliceFeatures, error) {
	return predictors.ComputeStream(cr, eps, cfg)
}

// ForEachStreamSlice featurizes slices as they arrive and hands each to
// fn, so arbitrarily long streams run in constant memory.
func ForEachStreamSlice(cr *ChunkReader, eps []float64, cfg PredictorConfig, fn func(SliceFeatures) error) error {
	return predictors.ForEachSlice(cr, eps, cfg, fn)
}

// OnlineConformalConfig tunes the rolling-coverage recalibration loop.
type OnlineConformalConfig = conformal.OnlineConfig

// OnlineConformalStats is a snapshot of the recalibration tracker.
type OnlineConformalStats = conformal.OnlineStats

// SynthVolume synthesizes one field's nz×ny×nx volume deterministically.
func SynthVolume(dataset string, spec FieldSpec, nz, ny, nx int, seed int64) *Volume {
	return synthdata.Volume(dataset, spec, nz, ny, nx, seed)
}

// SynthTemporal synthesizes a time-evolving 2D field: an AR(1) evolution
// across steps with persistence rho (out-of-range rho selects the
// default), for exercising temporal streams.
func SynthTemporal(dataset string, spec FieldSpec, steps, ny, nx int, seed int64, rho float64) []*Buffer {
	return synthdata.Temporal(dataset, spec, steps, ny, nx, seed, rho)
}
