// stream.go implements the chunked block-stream format ("CRBS") that
// feeds the out-of-core estimation pipeline: a self-describing binary
// framing of one or more 2D slices — a 3D volume streamed slice by slice
// along its slowest dimension, or a time-evolving field streamed step by
// step — delivered in row chunks of arbitrary size so a reader never
// needs more than one row of buffered bytes.
//
// Layout (all integers little-endian):
//
//	magic   [4]byte  "CRBS"
//	version uint16   1
//	dtype   uint8    0 = float64, 1 = float32
//	_       uint8    reserved, must be zero
//	rows    uint32   rows per slice
//	cols    uint32   columns per row
//	slices  uint32   slice count; 0 = unknown, read until EOF
//
// followed by chunk frames until rows*cols*slices values have been
// delivered:
//
//	nrows   uint32   rows in this chunk (≥ 1)
//	payload nrows*cols values, dtype-sized, row-major
//
// Chunks may span slice boundaries; the chunking is a transport detail
// with no semantic weight, which is what makes the differential suite's
// bit-identity claim across chunk sizes meaningful. A stream with
// slices = 0 must end exactly on a slice boundary; a stream that ends
// mid-chunk or mid-slice fails with a typed crerr.ErrStreamCorrupt.
//
// float32 payloads are read either widened to float64 (ReadRow; exact,
// since every float32 is representable as a float64) or natively
// (ReadRow32), which is how the predictor core featurizes dtype-1
// streams at float32 width. A dtype-1 stream is the one way native
// float32 data enters the library; the only precision loss on the way is
// the encoder's narrowing, bounded by ½ ULP of float32 (2⁻²⁴ relative).
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/crestlab/crest/internal/crerr"
)

// DType identifies the element encoding of a block stream.
type DType uint8

const (
	// DTypeF64 encodes values as IEEE-754 binary64, the lossless carrier.
	DTypeF64 DType = 0
	// DTypeF32 encodes values as IEEE-754 binary32 — half the bandwidth,
	// the native width of most sensor and simulation output.
	DTypeF32 DType = 1
)

// Size returns the encoded element width in bytes.
func (d DType) Size() int {
	if d == DTypeF32 {
		return 4
	}
	return 8
}

func (d DType) String() string {
	switch d {
	case DTypeF64:
		return "float64"
	case DTypeF32:
		return "float32"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

var streamMagic = [4]byte{'C', 'R', 'B', 'S'}

// streamVersion is the only framing version this build speaks.
const streamVersion = 1

// headerSize is the fixed byte length of the stream header.
const headerSize = 4 + 2 + 1 + 1 + 4 + 4 + 4

// StreamHeader describes the shape of a block stream.
type StreamHeader struct {
	DType DType
	// Rows and Cols are the shape of each 2D slice.
	Rows, Cols int
	// Slices is the number of slices carried; 0 means "until EOF", for
	// long-lived temporal feeds whose length is unknown when the header
	// is written.
	Slices int
}

// StreamLimits bounds what a ChunkReader will accept before touching any
// payload bytes, so a hostile or corrupt header cannot provoke a huge
// allocation. The zero value of any field selects its default.
type StreamLimits struct {
	// MaxCols bounds columns per row (default 1<<22: a 32 MiB float64
	// row). The reader's working buffer is one row.
	MaxCols int
	// MaxRows bounds rows per slice (default 1<<22).
	MaxRows int
	// MaxSlices bounds the declared slice count (default 1<<20).
	MaxSlices int
	// MaxElements bounds rows*cols*slices overall (default 1<<40).
	MaxElements int64
}

// DefaultStreamLimits are the limits applied when none are given.
var DefaultStreamLimits = StreamLimits{
	MaxCols:     1 << 22,
	MaxRows:     1 << 22,
	MaxSlices:   1 << 20,
	MaxElements: 1 << 40,
}

func (l StreamLimits) withDefaults() StreamLimits {
	d := DefaultStreamLimits
	if l.MaxCols > 0 {
		d.MaxCols = l.MaxCols
	}
	if l.MaxRows > 0 {
		d.MaxRows = l.MaxRows
	}
	if l.MaxSlices > 0 {
		d.MaxSlices = l.MaxSlices
	}
	if l.MaxElements > 0 {
		d.MaxElements = l.MaxElements
	}
	return d
}

// streamErr builds a typed framing error: it matches
// crerr.ErrStreamCorrupt and, when cause is non-nil, the cause too.
func streamErr(cause error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if cause == nil {
		return fmt.Errorf("%w: %s", crerr.ErrStreamCorrupt, msg)
	}
	return fmt.Errorf("%w: %s: %w", crerr.ErrStreamCorrupt, msg, cause)
}

// ChunkReader decodes a block stream row by row with O(row) working
// memory: one row of encoded bytes is the only buffer it holds,
// regardless of chunk size, slice shape or stream length. It is the
// ingest seam of the out-of-core pipeline — files, network bodies and
// pipes all arrive through an io.Reader.
type ChunkReader struct {
	r   io.Reader
	hdr StreamHeader

	rowBuf    []byte // one encoded row
	chunkLeft int    // rows remaining in the current chunk frame
	rowsRead  int64  // total rows delivered
	totalRows int64  // rows promised by the header; -1 when Slices == 0
	done      bool
	err       error // sticky failure
}

// NewChunkReader parses the stream header and returns a reader positioned
// at the first row. The optional limits bound the accepted shape;
// DefaultStreamLimits apply when omitted.
func NewChunkReader(r io.Reader, limits ...StreamLimits) (*ChunkReader, error) {
	lim := DefaultStreamLimits
	if len(limits) > 0 {
		lim = limits[0].withDefaults()
	}
	var raw [headerSize]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return nil, streamErr(err, "short header")
	}
	if [4]byte(raw[0:4]) != streamMagic {
		return nil, streamErr(nil, "bad magic %q", raw[0:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != streamVersion {
		return nil, streamErr(nil, "unsupported version %d", v)
	}
	dt := DType(raw[6])
	if dt != DTypeF64 && dt != DTypeF32 {
		return nil, streamErr(nil, "unknown dtype %d", raw[6])
	}
	if raw[7] != 0 {
		return nil, streamErr(nil, "nonzero reserved byte %d", raw[7])
	}
	rows := int(binary.LittleEndian.Uint32(raw[8:12]))
	cols := int(binary.LittleEndian.Uint32(raw[12:16]))
	slices := int(binary.LittleEndian.Uint32(raw[16:20]))
	if rows <= 0 || cols <= 0 {
		return nil, streamErr(nil, "invalid slice shape %dx%d", rows, cols)
	}
	if cols > lim.MaxCols || rows > lim.MaxRows || slices > lim.MaxSlices {
		return nil, streamErr(nil, "shape %dx%dx%d exceeds ingest limits (max %dx%dx%d)",
			slices, rows, cols, lim.MaxSlices, lim.MaxRows, lim.MaxCols)
	}
	if slices > 0 {
		if n := int64(rows) * int64(cols) * int64(slices); n > lim.MaxElements {
			return nil, streamErr(nil, "%d elements exceed ingest limit %d", n, lim.MaxElements)
		}
	}
	cr := &ChunkReader{
		r:         r,
		hdr:       StreamHeader{DType: dt, Rows: rows, Cols: cols, Slices: slices},
		rowBuf:    make([]byte, cols*dt.Size()),
		totalRows: -1,
	}
	if slices > 0 {
		cr.totalRows = int64(rows) * int64(slices)
	}
	return cr, nil
}

// Header returns the decoded stream header.
func (cr *ChunkReader) Header() StreamHeader { return cr.hdr }

// SlicesRead returns the number of complete slices delivered so far.
func (cr *ChunkReader) SlicesRead() int { return int(cr.rowsRead / int64(cr.hdr.Rows)) }

// ReadRow decodes the next row into dst, which must have length
// Header().Cols. float32 payloads are widened exactly. At the end of the
// stream it returns io.EOF: after the declared data for Slices > 0, or at
// a clean slice boundary for Slices == 0. Any framing violation — a
// truncated chunk, a zero-row frame, payload past the declared shape, an
// unexpected EOF mid-slice — and any underlying read failure return an
// error matching crerr.ErrStreamCorrupt (wrapping the cause, when there
// is one); the reader is then poisoned and every later call repeats the
// same error, so a partial stream can never be mistaken for a complete
// one.
func (cr *ChunkReader) ReadRow(dst []float64) error {
	if err := cr.fetchRow(len(dst)); err != nil {
		return err
	}
	cr.decodeRow(dst)
	return cr.advanceRow()
}

// ReadRow32 is ReadRow for float32 streams without the widening step:
// dtype-1 payload bits land in dst unchanged, which keeps the
// end-to-end float32 pipeline (server ingest, featurizer core) at
// half the memory traffic. It refuses float64 streams — narrowing is a
// lossy decision the caller must make explicitly.
func (cr *ChunkReader) ReadRow32(dst []float32) error {
	if cr.hdr.DType != DTypeF32 {
		return fmt.Errorf("%w: ReadRow32 on a %s stream", crerr.ErrInvalidBuffer, cr.hdr.DType)
	}
	if err := cr.fetchRow(len(dst)); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(cr.rowBuf[4*i:]))
	}
	return cr.advanceRow()
}

// fetchRow runs the shared pre-decode half of ReadRow/ReadRow32: sticky
// error and EOF state, destination-length validation, chunk-frame
// advance, and the raw payload read into rowBuf.
func (cr *ChunkReader) fetchRow(dstLen int) error {
	if cr.err != nil {
		return cr.err
	}
	if cr.done {
		return io.EOF
	}
	if dstLen != cr.hdr.Cols {
		return fmt.Errorf("%w: ReadRow dst length %d, want %d", crerr.ErrInvalidBuffer, dstLen, cr.hdr.Cols)
	}
	if cr.chunkLeft == 0 {
		if err := cr.nextChunk(); err != nil {
			if err == io.EOF {
				cr.done = true
				return io.EOF
			}
			cr.err = err
			return err
		}
	}
	if _, err := io.ReadFull(cr.r, cr.rowBuf); err != nil {
		cr.err = streamErr(err, "row %d truncated", cr.rowsRead)
		return cr.err
	}
	return nil
}

// advanceRow runs the shared post-decode half: row accounting and the
// declared-shape overrun check.
func (cr *ChunkReader) advanceRow() error {
	cr.chunkLeft--
	cr.rowsRead++
	if cr.totalRows >= 0 && cr.rowsRead == cr.totalRows {
		if cr.chunkLeft > 0 {
			cr.err = streamErr(nil, "chunk promises %d rows past the declared %d", cr.chunkLeft, cr.totalRows)
			return cr.err
		}
		cr.done = true
	}
	return nil
}

// nextChunk reads the next chunk frame header. io.EOF is returned only at
// a legal end of stream; every other condition is a typed framing error.
func (cr *ChunkReader) nextChunk() error {
	var raw [4]byte
	_, err := io.ReadFull(cr.r, raw[:])
	if err == io.EOF {
		// EOF between chunk frames: legal iff every promised row arrived
		// (known count), or we sit on a slice boundary (open-ended).
		if cr.totalRows >= 0 && cr.rowsRead < cr.totalRows {
			return streamErr(io.ErrUnexpectedEOF, "stream ends after %d of %d rows", cr.rowsRead, cr.totalRows)
		}
		if cr.totalRows < 0 && cr.rowsRead%int64(cr.hdr.Rows) != 0 {
			return streamErr(io.ErrUnexpectedEOF, "stream ends mid-slice at row %d of a %d-row slice",
				cr.rowsRead%int64(cr.hdr.Rows), cr.hdr.Rows)
		}
		return io.EOF
	}
	if err != nil {
		return streamErr(err, "chunk header at row %d", cr.rowsRead)
	}
	n := int(binary.LittleEndian.Uint32(raw[:]))
	if n == 0 {
		return streamErr(nil, "zero-row chunk at row %d", cr.rowsRead)
	}
	if cr.totalRows >= 0 && cr.rowsRead+int64(n) > cr.totalRows {
		return streamErr(nil, "chunk of %d rows overruns the declared %d at row %d", n, cr.totalRows, cr.rowsRead)
	}
	cr.chunkLeft = n
	return nil
}

func (cr *ChunkReader) decodeRow(dst []float64) {
	if cr.hdr.DType == DTypeF32 {
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(cr.rowBuf[4*i:])))
		}
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(cr.rowBuf[8*i:]))
	}
}

// ReadSlice reads the next full slice into a fresh buffer, or returns
// io.EOF when the stream is exhausted. It is the convenience path for
// callers that want whole slices; the out-of-core pipeline uses ReadRow.
func (cr *ChunkReader) ReadSlice() (*Buffer, error) {
	buf := NewBuffer(cr.hdr.Rows, cr.hdr.Cols)
	buf.Step = cr.SlicesRead()
	for r := 0; r < cr.hdr.Rows; r++ {
		err := cr.ReadRow(buf.Data[r*cr.hdr.Cols : (r+1)*cr.hdr.Cols])
		if err == io.EOF && r == 0 {
			return nil, io.EOF
		}
		if err != nil {
			if err == io.EOF {
				err = streamErr(io.ErrUnexpectedEOF, "slice %d truncated at row %d", buf.Step, r)
			}
			return nil, err
		}
	}
	return buf, nil
}

// ---------------------------------------------------------------------------
// Writer

// ChunkWriter encodes a block stream. Rows are buffered into chunk frames
// of ChunkRows rows; Close flushes the final partial chunk and verifies
// the declared shape was honored.
type ChunkWriter struct {
	w   io.Writer
	hdr StreamHeader

	chunkRows int
	buf       []byte // pending chunk payload
	bufRows   int
	rowsDone  int64
	scratch   [8]byte
	closed    bool
}

// NewChunkWriter writes the stream header and returns a writer. chunkRows
// is the number of rows per chunk frame (≤ 0 selects 32, the panel height
// of the streaming Gram pass).
func NewChunkWriter(w io.Writer, hdr StreamHeader, chunkRows int) (*ChunkWriter, error) {
	if hdr.Rows <= 0 || hdr.Cols <= 0 || hdr.Slices < 0 {
		return nil, fmt.Errorf("%w: stream shape %dx%dx%d", crerr.ErrInvalidBuffer, hdr.Slices, hdr.Rows, hdr.Cols)
	}
	if hdr.DType != DTypeF64 && hdr.DType != DTypeF32 {
		return nil, fmt.Errorf("%w: unknown dtype %d", crerr.ErrInvalidBuffer, hdr.DType)
	}
	if chunkRows <= 0 {
		chunkRows = 32
	}
	var raw [headerSize]byte
	copy(raw[0:4], streamMagic[:])
	binary.LittleEndian.PutUint16(raw[4:6], streamVersion)
	raw[6] = uint8(hdr.DType)
	binary.LittleEndian.PutUint32(raw[8:12], uint32(hdr.Rows))
	binary.LittleEndian.PutUint32(raw[12:16], uint32(hdr.Cols))
	binary.LittleEndian.PutUint32(raw[16:20], uint32(hdr.Slices))
	if _, err := w.Write(raw[:]); err != nil {
		return nil, fmt.Errorf("grid: write stream header: %w", err)
	}
	return &ChunkWriter{
		w:         w,
		hdr:       hdr,
		chunkRows: chunkRows,
		buf:       make([]byte, 0, chunkRows*hdr.Cols*hdr.DType.Size()),
	}, nil
}

// WriteRow appends one row (length Cols). float32 streams narrow each
// value with the usual round-to-nearest conversion; a finite value whose
// magnitude exceeds MaxFloat32 would silently round to ±Inf — and only
// fail much later, far from the source, when a reader validates the
// decoded buffer — so the writer rejects it up front with a typed error
// naming the offending coordinate. NaN and ±Inf inputs pass through
// unchanged (they are non-finite in either precision; readers apply
// their own ValidationPolicy).
func (cw *ChunkWriter) WriteRow(row []float64) error {
	if cw.closed {
		return errors.New("grid: write on closed ChunkWriter")
	}
	if len(row) != cw.hdr.Cols {
		return fmt.Errorf("%w: row length %d, want %d", crerr.ErrInvalidBuffer, len(row), cw.hdr.Cols)
	}
	if cw.hdr.Slices > 0 && cw.rowsDone >= int64(cw.hdr.Rows)*int64(cw.hdr.Slices) {
		return fmt.Errorf("%w: row past the declared %d slices", crerr.ErrInvalidBuffer, cw.hdr.Slices)
	}
	if cw.hdr.DType == DTypeF32 {
		// Validate the whole row before encoding any of it, so a
		// rejected row leaves the chunk buffer frame-aligned.
		for c, v := range row {
			if math.IsInf(float64(float32(v)), 0) && !math.IsInf(v, 0) {
				return fmt.Errorf("%w: float32 narrowing of %g overflows at slice %d row %d col %d",
					crerr.ErrNonFiniteData, v,
					cw.rowsDone/int64(cw.hdr.Rows), cw.rowsDone%int64(cw.hdr.Rows), c)
			}
		}
		for _, v := range row {
			binary.LittleEndian.PutUint32(cw.scratch[:4], math.Float32bits(float32(v)))
			cw.buf = append(cw.buf, cw.scratch[:4]...)
		}
	} else {
		for _, v := range row {
			binary.LittleEndian.PutUint64(cw.scratch[:8], math.Float64bits(v))
			cw.buf = append(cw.buf, cw.scratch[:8]...)
		}
	}
	cw.bufRows++
	cw.rowsDone++
	if cw.bufRows >= cw.chunkRows {
		return cw.flushChunk()
	}
	return nil
}

// WriteBuffer appends all rows of one slice, whose shape must match the
// header.
func (cw *ChunkWriter) WriteBuffer(buf *Buffer) error {
	if buf.Rows != cw.hdr.Rows || buf.Cols != cw.hdr.Cols {
		return fmt.Errorf("%w: slice shape %dx%d, stream wants %dx%d",
			crerr.ErrInvalidBuffer, buf.Rows, buf.Cols, cw.hdr.Rows, cw.hdr.Cols)
	}
	for r := 0; r < buf.Rows; r++ {
		if err := cw.WriteRow(buf.Data[r*buf.Cols : (r+1)*buf.Cols]); err != nil {
			return err
		}
	}
	return nil
}

func (cw *ChunkWriter) flushChunk() error {
	if cw.bufRows == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(cw.scratch[:4], uint32(cw.bufRows))
	if _, err := cw.w.Write(cw.scratch[:4]); err != nil {
		return fmt.Errorf("grid: write chunk header: %w", err)
	}
	if _, err := cw.w.Write(cw.buf); err != nil {
		return fmt.Errorf("grid: write chunk payload: %w", err)
	}
	cw.buf = cw.buf[:0]
	cw.bufRows = 0
	return nil
}

// Close flushes the final chunk and verifies the writer produced exactly
// the declared data (whole slices; all of them when Slices > 0). It does
// not close the underlying writer.
func (cw *ChunkWriter) Close() error {
	if cw.closed {
		return nil
	}
	if err := cw.flushChunk(); err != nil {
		return err
	}
	cw.closed = true
	if cw.rowsDone%int64(cw.hdr.Rows) != 0 {
		return fmt.Errorf("%w: stream closed mid-slice at row %d of %d",
			crerr.ErrInvalidBuffer, cw.rowsDone%int64(cw.hdr.Rows), cw.hdr.Rows)
	}
	if cw.hdr.Slices > 0 && cw.rowsDone != int64(cw.hdr.Rows)*int64(cw.hdr.Slices) {
		return fmt.Errorf("%w: stream closed after %d of %d declared slices",
			crerr.ErrInvalidBuffer, cw.rowsDone/int64(cw.hdr.Rows), cw.hdr.Slices)
	}
	return nil
}

// EncodeBuffer writes a single 2D buffer as a one-slice stream.
func EncodeBuffer(w io.Writer, buf *Buffer, dt DType, chunkRows int) error {
	cw, err := NewChunkWriter(w, StreamHeader{DType: dt, Rows: buf.Rows, Cols: buf.Cols, Slices: 1}, chunkRows)
	if err != nil {
		return err
	}
	if err := cw.WriteBuffer(buf); err != nil {
		return err
	}
	return cw.Close()
}

// EncodeVolume writes a 3D volume as an NZ-slice stream, sliced along the
// slowest dimension exactly as Volume.Slices.
func EncodeVolume(w io.Writer, vol *Volume, dt DType, chunkRows int) error {
	cw, err := NewChunkWriter(w, StreamHeader{DType: dt, Rows: vol.NY, Cols: vol.NX, Slices: vol.NZ}, chunkRows)
	if err != nil {
		return err
	}
	for z := 0; z < vol.NZ; z++ {
		if err := cw.WriteBuffer(vol.Slice(z)); err != nil {
			return err
		}
	}
	return cw.Close()
}

// EncodeBuffers writes a temporal sequence of same-shaped buffers (one
// slice per time step).
func EncodeBuffers(w io.Writer, bufs []*Buffer, dt DType, chunkRows int) error {
	if len(bufs) == 0 {
		return fmt.Errorf("%w: empty buffer sequence", crerr.ErrInvalidBuffer)
	}
	hdr := StreamHeader{DType: dt, Rows: bufs[0].Rows, Cols: bufs[0].Cols, Slices: len(bufs)}
	cw, err := NewChunkWriter(w, hdr, chunkRows)
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if err := cw.WriteBuffer(b); err != nil {
			return err
		}
	}
	return cw.Close()
}
