// Package grid provides the data-model vocabulary of the paper: buffers,
// fields, time-steps, datasets, and the block tiling used by all
// compressibility predictors.
//
// A Buffer is a single 2D array of float64 belonging to one field and one
// time-step of a dataset (paper §II). Native 3D volumes are converted to 2D
// buffers by slicing along the slowest-varying dimension (paper §VI-A1).
package grid

import (
	"fmt"
	"math"

	"github.com/crestlab/crest/internal/crerr"
)

// Buffer is a dense, row-major 2D array identified by dataset, field and
// time-step. It is the atomic unit of compression and prediction.
type Buffer struct {
	// Dataset, Field and Step identify the buffer within a run (§II).
	Dataset string
	Field   string
	Step    int

	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewBuffer allocates a zeroed rows×cols buffer.
func NewBuffer(rows, cols int) *Buffer {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("grid: invalid buffer shape %dx%d", rows, cols))
	}
	return &Buffer{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, len rows*cols) in a Buffer without
// copying. The caller must not alias data afterwards.
func FromSlice(rows, cols int, data []float64) (*Buffer, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: invalid shape %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("grid: data length %d != %d*%d", len(data), rows, cols)
	}
	return &Buffer{Rows: rows, Cols: cols, Data: data}, nil
}

// At returns the element at row r, column c.
func (b *Buffer) At(r, c int) float64 { return b.Data[r*b.Cols+c] }

// Set assigns the element at row r, column c.
func (b *Buffer) Set(r, c int, v float64) { b.Data[r*b.Cols+c] = v }

// Len returns the number of elements.
func (b *Buffer) Len() int { return len(b.Data) }

// SizeBytes returns the uncompressed size in bytes (8 bytes per element).
func (b *Buffer) SizeBytes() int { return 8 * len(b.Data) }

// Clone returns a deep copy of the buffer.
func (b *Buffer) Clone() *Buffer {
	c := *b
	c.Data = make([]float64, len(b.Data))
	copy(c.Data, b.Data)
	return &c
}

// Range returns the minimum and maximum values. For an empty buffer both
// are zero.
func (b *Buffer) Range() (lo, hi float64) {
	if len(b.Data) == 0 {
		return 0, 0
	}
	lo, hi = b.Data[0], b.Data[0]
	for _, v := range b.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// MaxAbsDiff returns max_i |b_i - o_i|, the metric bounded by error-bounded
// compressors. It returns +Inf when shapes differ.
func (b *Buffer) MaxAbsDiff(o *Buffer) float64 {
	if b.Rows != o.Rows || b.Cols != o.Cols {
		return math.Inf(1)
	}
	var m float64
	for i, v := range b.Data {
		d := math.Abs(v - o.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// ValidationPolicy bounds what buffer data the estimation pipeline
// accepts at its public boundaries.
type ValidationPolicy struct {
	// MaxNonFiniteFraction is the tolerated fraction of NaN/±Inf values
	// in [0, 1]. The zero value rejects any non-finite element.
	MaxNonFiniteFraction float64
}

// DefaultValidation rejects any non-finite element: the statistical
// predictors and the regression mixture have no meaningful NaN semantics,
// so by default a single poisoned value fails fast with a typed error
// instead of silently producing NaN features.
var DefaultValidation = ValidationPolicy{}

// Validate checks the buffer's shape invariants and applies the policy's
// non-finite data bound. Shape violations wrap crerr.ErrInvalidBuffer;
// data violations wrap crerr.ErrNonFiniteData. A valid buffer makes every
// grid accessor (At, Blocking, Vec) panic-free, which is how panics from
// malformed buffers are converted to errors at the API boundary.
func (b *Buffer) Validate(p ValidationPolicy) error {
	if b == nil {
		return fmt.Errorf("%w: nil buffer", crerr.ErrInvalidBuffer)
	}
	if b.Rows <= 0 || b.Cols <= 0 {
		return fmt.Errorf("%w: shape %dx%d", crerr.ErrInvalidBuffer, b.Rows, b.Cols)
	}
	if len(b.Data) != b.Rows*b.Cols {
		return fmt.Errorf("%w: data length %d != %d*%d", crerr.ErrInvalidBuffer, len(b.Data), b.Rows, b.Cols)
	}
	bad := 0
	for _, v := range b.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
		}
	}
	if bad > 0 {
		frac := float64(bad) / float64(len(b.Data))
		if frac > p.MaxNonFiniteFraction {
			return fmt.Errorf("%w: %d of %d values (%.3g%% > %.3g%% allowed)",
				crerr.ErrNonFiniteData, bad, len(b.Data), 100*frac, 100*p.MaxNonFiniteFraction)
		}
	}
	return nil
}

// Sanitized returns the buffer itself when it contains no non-finite
// values, or a deep copy with every NaN/±Inf replaced by the mean of the
// finite values (zero when none exist). It is the degradation path for
// callers that opt into a tolerant ValidationPolicy.
func (b *Buffer) Sanitized() *Buffer {
	bad := 0
	var sum float64
	n := 0
	for _, v := range b.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
		} else {
			sum += v
			n++
		}
	}
	if bad == 0 {
		return b
	}
	fill := 0.0
	if n > 0 {
		fill = sum / float64(n)
	}
	c := b.Clone()
	for i, v := range c.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c.Data[i] = fill
		}
	}
	return c
}

// Volume is a dense, row-major 3D array (slowest dimension first). Volumes
// are sliced to 2D buffers for prediction and compression.
type Volume struct {
	Dataset string
	Field   string

	NZ, NY, NX int
	Data       []float64 // len == NZ*NY*NX, z-major
}

// NewVolume allocates a zeroed nz×ny×nx volume.
func NewVolume(nz, ny, nx int) *Volume {
	if nz <= 0 || ny <= 0 || nx <= 0 {
		panic(fmt.Sprintf("grid: invalid volume shape %dx%dx%d", nz, ny, nx))
	}
	return &Volume{NZ: nz, NY: ny, NX: nx, Data: make([]float64, nz*ny*nx)}
}

// At returns the element at (z, y, x).
func (v *Volume) At(z, y, x int) float64 { return v.Data[(z*v.NY+y)*v.NX+x] }

// Set assigns the element at (z, y, x).
func (v *Volume) Set(z, y, x int, val float64) { v.Data[(z*v.NY+y)*v.NX+x] = val }

// Validate checks the volume's shape invariants and applies the policy's
// non-finite bound, mirroring Buffer.Validate.
func (v *Volume) Validate(p ValidationPolicy) error {
	if v == nil {
		return fmt.Errorf("%w: nil volume", crerr.ErrInvalidBuffer)
	}
	if v.NZ <= 0 || v.NY <= 0 || v.NX <= 0 {
		return fmt.Errorf("%w: volume shape %dx%dx%d", crerr.ErrInvalidBuffer, v.NZ, v.NY, v.NX)
	}
	if len(v.Data) != v.NZ*v.NY*v.NX {
		return fmt.Errorf("%w: volume data length %d != %d*%d*%d",
			crerr.ErrInvalidBuffer, len(v.Data), v.NZ, v.NY, v.NX)
	}
	probe := Buffer{Rows: v.NZ * v.NY, Cols: v.NX, Data: v.Data}
	return probe.Validate(p)
}

// Slice returns the z-th 2D slice as a buffer sharing the volume's storage.
// Slicing along the slowest dimension mirrors the paper's conversion of 3D
// SDRBench data to 2D buffers (§VI-A1).
func (v *Volume) Slice(z int) *Buffer {
	if z < 0 || z >= v.NZ {
		panic(fmt.Sprintf("grid: slice %d out of range [0,%d)", z, v.NZ))
	}
	return &Buffer{
		Dataset: v.Dataset,
		Field:   v.Field,
		Step:    z,
		Rows:    v.NY,
		Cols:    v.NX,
		Data:    v.Data[z*v.NY*v.NX : (z+1)*v.NY*v.NX],
	}
}

// Slices returns all NZ slices of the volume.
func (v *Volume) Slices() []*Buffer {
	out := make([]*Buffer, v.NZ)
	for z := 0; z < v.NZ; z++ {
		out[z] = v.Slice(z)
	}
	return out
}

// Field groups the buffers of one physical quantity across time-steps.
type Field struct {
	Dataset string
	Name    string
	Buffers []*Buffer
}

// Dataset is all data from one run of an application: a set of fields.
type Dataset struct {
	Name   string
	Fields []*Field
}

// Field returns the named field, or nil when absent.
func (d *Dataset) Field(name string) *Field {
	for _, f := range d.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FieldNames lists field names in declaration order.
func (d *Dataset) FieldNames() []string {
	names := make([]string, len(d.Fields))
	for i, f := range d.Fields {
		names[i] = f.Name
	}
	return names
}

// Buffers returns every buffer of every field, field-major.
func (d *Dataset) Buffers() []*Buffer {
	var out []*Buffer
	for _, f := range d.Fields {
		out = append(out, f.Buffers...)
	}
	return out
}

// ErrNotTileable reports a buffer whose dimensions are not divisible by the
// requested block size. It is classified under crerr.ErrInvalidBuffer: a
// buffer too small for the configured blocking is an invalid input to the
// predictor pipeline.
var ErrNotTileable = fmt.Errorf("%w: buffer dimensions not divisible by block size", crerr.ErrInvalidBuffer)

// Blocking is the decomposition of a buffer into B = Br×Bc spatially
// connected k×k blocks (§IV-A). Block b = r*Bc + c covers rows
// [r*k,(r+1)*k) and columns [c*k,(c+1)*k).
type Blocking struct {
	K      int // block edge length
	Br, Bc int // rows and columns of blocks
	buf    *Buffer
}

// NewBlocking tiles buf into k×k blocks. The buffer is cropped to the
// largest multiple of k in each dimension, matching the paper's row-wise
// division of X ∈ R^{p×p} into B blocks with p² = B·k².
func NewBlocking(buf *Buffer, k int) (*Blocking, error) {
	t, err := MakeBlocking(buf, k)
	if err != nil {
		return nil, err
	}
	return &t, nil
}

// MakeBlocking is NewBlocking returning the Blocking by value, so
// zero-allocation hot paths (the pooled predictor scratch) can tile a
// buffer without the pointer escaping to the heap.
func MakeBlocking(buf *Buffer, k int) (Blocking, error) {
	if k <= 0 {
		return Blocking{}, fmt.Errorf("grid: invalid block size %d", k)
	}
	br, bc := buf.Rows/k, buf.Cols/k
	if br == 0 || bc == 0 {
		return Blocking{}, fmt.Errorf("%w: %dx%d buffer with k=%d", ErrNotTileable, buf.Rows, buf.Cols, k)
	}
	return Blocking{K: k, Br: br, Bc: bc, buf: buf}, nil
}

// NumBlocks returns B = Br*Bc.
func (t *Blocking) NumBlocks() int { return t.Br * t.Bc }

// BlockPos returns the (row, col) block coordinates of block b.
func (t *Blocking) BlockPos(b int) (br, bc int) { return b / t.Bc, b % t.Bc }

// ManhattanDist returns the Manhattan distance between the locations of
// blocks a and b, the D^s_{b,b'} term of the paper's inter-block weights.
func (t *Blocking) ManhattanDist(a, b int) float64 {
	ar, ac := t.BlockPos(a)
	br, bc := t.BlockPos(b)
	return math.Abs(float64(ar-br)) + math.Abs(float64(ac-bc))
}

// Vec copies block b into dst (len ≥ k²) row-wise and returns dst[:k²],
// producing the vectorized block X^b = vec(X_b) of §IV-A. When dst is nil a
// fresh slice is allocated.
func (t *Blocking) Vec(b int, dst []float64) []float64 {
	k := t.K
	if dst == nil {
		dst = make([]float64, k*k)
	}
	dst = dst[:k*k]
	br, bc := t.BlockPos(b)
	r0, c0 := br*k, bc*k
	for r := 0; r < k; r++ {
		row := t.buf.Data[(r0+r)*t.buf.Cols+c0 : (r0+r)*t.buf.Cols+c0+k]
		copy(dst[r*k:(r+1)*k], row)
	}
	return dst
}

// VecAll vectorizes every block, returning a B×k² row-major matrix backed
// by one allocation.
func (t *Blocking) VecAll() [][]float64 {
	b := t.NumBlocks()
	k2 := t.K * t.K
	backing := make([]float64, b*k2)
	rows := make([][]float64, b)
	for i := range rows {
		rows[i] = backing[i*k2 : (i+1)*k2]
		t.Vec(i, rows[i])
	}
	return rows
}
