package compressors

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// container.go holds the shared serialization helpers: a tiny header
// (format tag + shape), varint/float primitives, and a DEFLATE wrapper
// used as the generic lossless back end (standing in for the zstd stage of
// the real compressors).

// format tags distinguish the streams so Decompress can reject foreign
// data.
const (
	tagSZLorenzo byte = 0x51
	tagSZInterp  byte = 0x52
	tagZFPLike   byte = 0x53
	tagBitGroom  byte = 0x54
	tagDigitRnd  byte = 0x55
	tagSperr     byte = 0x56
	tagTThresh   byte = 0x57
	tagMGARD     byte = 0x58
)

type wbuf struct {
	bytes.Buffer
}

func (w *wbuf) putByte(b byte) { w.WriteByte(b) }

func (w *wbuf) putUvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.Write(tmp[:n])
}

func (w *wbuf) putVarint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	w.Write(tmp[:n])
}

func (w *wbuf) putFloat(f float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	w.Write(tmp[:])
}

func (w *wbuf) putFloats(fs []float64) {
	for _, f := range fs {
		w.putFloat(f)
	}
}

type rbuf struct {
	*bytes.Reader
}

func newRbuf(b []byte) *rbuf { return &rbuf{bytes.NewReader(b)} }

func (r *rbuf) getByte() (byte, error) { return r.ReadByte() }

func (r *rbuf) getUvarint() (uint64, error) { return binary.ReadUvarint(r.Reader) }

func (r *rbuf) getVarint() (int64, error) { return binary.ReadVarint(r.Reader) }

func (r *rbuf) getFloat() (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(r.Reader, tmp[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}

func (r *rbuf) getFloats(n int) ([]float64, error) {
	// A float64 costs 8 payload bytes; reject declared counts the
	// remaining payload cannot possibly hold before allocating.
	if n < 0 || n > r.Len()/8 {
		return nil, ErrCorrupt
	}
	out := make([]float64, n)
	for i := range out {
		f, err := r.getFloat()
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// deflate losslessly compresses b at the default level.
func deflate(b []byte) []byte {
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		panic(err) // only on invalid level
	}
	if _, err := fw.Write(b); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := fw.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// inflate reverses deflate.
func inflate(b []byte) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(b))
	defer fr.Close()
	out, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// sealStream frames a payload with tag + shape and deflates the payload.
func sealStream(tag byte, rows, cols int, payload []byte) []byte {
	var w wbuf
	w.putByte(tag)
	w.putUvarint(uint64(rows))
	w.putUvarint(uint64(cols))
	comp := deflate(payload)
	w.putUvarint(uint64(len(comp)))
	w.Write(comp)
	return w.Bytes()
}

// openStream validates the tag and returns shape plus the inflated
// payload.
func openStream(tag byte, data []byte) (rows, cols int, payload []byte, err error) {
	r := newRbuf(data)
	got, err := r.getByte()
	if err != nil || got != tag {
		return 0, 0, nil, fmt.Errorf("%w: bad tag", ErrCorrupt)
	}
	ur, err := r.getUvarint()
	if err != nil {
		return 0, 0, nil, ErrCorrupt
	}
	uc, err := r.getUvarint()
	if err != nil {
		return 0, 0, nil, ErrCorrupt
	}
	n, err := r.getUvarint()
	if err != nil || n > uint64(r.Len()) {
		return 0, 0, nil, ErrCorrupt
	}
	comp := make([]byte, n)
	if _, err := io.ReadFull(r.Reader, comp); err != nil {
		return 0, 0, nil, ErrCorrupt
	}
	payload, err = inflate(comp)
	if err != nil {
		return 0, 0, nil, err
	}
	// Cap the declared shape so corrupt headers cannot demand absurd
	// allocations (2^26 elements = 512 MiB of float64, far above any
	// buffer this library produces).
	if ur == 0 || uc == 0 || ur*uc > 1<<24 {
		return 0, 0, nil, ErrCorrupt
	}
	return int(ur), int(uc), payload, nil
}
