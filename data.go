package crest

import (
	"fmt"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/synthdata"
)

// Buffer is a single 2D float64 array belonging to one field and time-step
// — the atomic unit of compression and estimation.
type Buffer = grid.Buffer

// Volume is a 3D array sliced along its slowest dimension into Buffers.
type Volume = grid.Volume

// Field groups one physical quantity's buffers across time-steps.
type Field = grid.Field

// Dataset is all fields from one application run.
type Dataset = grid.Dataset

// NewBuffer allocates a zeroed rows×cols buffer. Invalid shapes are
// reported as an error wrapping ErrInvalidBuffer instead of panicking.
func NewBuffer(rows, cols int) (*Buffer, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: shape %dx%d", crerr.ErrInvalidBuffer, rows, cols)
	}
	return grid.NewBuffer(rows, cols), nil
}

// BufferFromSlice wraps row-major data in a Buffer without copying.
func BufferFromSlice(rows, cols int, data []float64) (*Buffer, error) {
	return grid.FromSlice(rows, cols, data)
}

// NewVolume allocates a zeroed nz×ny×nx volume. Invalid shapes are
// reported as an error wrapping ErrInvalidBuffer instead of panicking.
func NewVolume(nz, ny, nx int) (*Volume, error) {
	if nz <= 0 || ny <= 0 || nx <= 0 {
		return nil, fmt.Errorf("%w: volume shape %dx%dx%d", crerr.ErrInvalidBuffer, nz, ny, nx)
	}
	return grid.NewVolume(nz, ny, nx), nil
}

// ValidationPolicy bounds what buffer data the estimation pipeline accepts
// at its public boundaries. The zero value rejects any non-finite element.
type ValidationPolicy = grid.ValidationPolicy

// ValidateBuffer checks shape invariants and the policy's non-finite data
// bound. Shape violations wrap ErrInvalidBuffer; data violations wrap
// ErrNonFiniteData. The estimation entry points run this check with the
// default (zero) policy, so a caller that tolerates some NaN/Inf should
// validate with its own policy and pass the buffer through
// SanitizeBuffer first.
func ValidateBuffer(b *Buffer, p ValidationPolicy) error { return b.Validate(p) }

// SanitizeBuffer returns a copy with every non-finite element replaced by
// the mean of the finite ones (zero when none are finite) — the graceful-
// degradation path for data that fails ValidateBuffer on non-finiteness.
func SanitizeBuffer(b *Buffer) *Buffer { return b.Sanitized() }

// ValidateVolume is ValidateBuffer for a 3D volume.
func ValidateVolume(v *Volume, p ValidationPolicy) error { return v.Validate(p) }

// DataOptions sizes a generated synthetic dataset; zero values select the
// defaults (20 slices of 96×96).
type DataOptions = synthdata.Options

// FieldSpec describes one synthetic field recipe.
type FieldSpec = synthdata.FieldSpec

// HurricaneDataset generates the deterministic 12-field hurricane-like
// dataset (the paper's Hurricane ISABEL stand-in).
func HurricaneDataset(o DataOptions) *Dataset { return synthdata.Hurricane(o) }

// NYXDataset generates the cosmology-like dataset.
func NYXDataset(o DataOptions) *Dataset { return synthdata.NYX(o) }

// MirandaDataset generates the turbulence-like dataset.
func MirandaDataset(o DataOptions) *Dataset { return synthdata.Miranda(o) }

// CESMDataset generates the climate-like dataset.
func CESMDataset(o DataOptions) *Dataset { return synthdata.CESM(o) }

// AllDatasets generates the four evaluation datasets used by the Fig. 4
// reproduction.
func AllDatasets(o DataOptions) []*Dataset { return synthdata.All(o) }

// GenerateDataset builds a custom synthetic dataset from field recipes.
func GenerateDataset(name string, specs []FieldSpec, nz, ny, nx int, seed int64) *Dataset {
	return synthdata.Generate(name, specs, nz, ny, nx, seed)
}
