package huffman

// BitWriter packs bits MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint // bits currently in cur (< 8)
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBits writes the low n bits of v, most significant first. n ≤ 57.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	w.cur = w.cur<<n | (v & (1<<n - 1))
	w.nCur += n
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
}

// WriteUvarint writes v with a variable-length 7-bit group encoding.
func (w *BitWriter) WriteUvarint(v uint64) {
	for v >= 0x80 {
		w.WriteBits(uint64(byte(v)|0x80), 8)
		v >>= 7
	}
	w.WriteBits(v, 8)
}

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		pad := 8 - w.nCur
		w.buf = append(w.buf, byte(w.cur<<pad))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// BitReader unpacks bits MSB-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int // byte position
	cur  uint64
	nCur uint
}

// NewBitReader reads from b.
func NewBitReader(b []byte) *BitReader { return &BitReader{buf: b} }

// ReadBits reads n bits (n ≤ 57), returning them in the low bits. Reading
// past the end yields zero bits, matching the writer's zero padding.
func (r *BitReader) ReadBits(n uint) uint64 {
	for r.nCur < n {
		var next byte
		if r.pos < len(r.buf) {
			next = r.buf[r.pos]
			r.pos++
		}
		r.cur = r.cur<<8 | uint64(next)
		r.nCur += 8
	}
	r.nCur -= n
	v := r.cur >> r.nCur
	r.cur &= 1<<r.nCur - 1
	return v & (1<<n - 1)
}

// ReadUvarint reads a value written by WriteUvarint.
func (r *BitReader) ReadUvarint() uint64 {
	var v uint64
	var shift uint
	for {
		b := byte(r.ReadBits(8))
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}
