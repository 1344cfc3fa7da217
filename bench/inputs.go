package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/synthdata"
)

// inputSeed fixes the synthesized base fields. The --seed flag drives only
// each op's patch (which element, what value), so every seed exercises the
// same field content and the accuracy metrics stay comparable across
// seeds, while the patched element makes every op's buffer distinct.
const inputSeed = 2023

// hurricaneSpec returns the synthdata recipe of one hurricane field.
func hurricaneSpec(name string) synthdata.FieldSpec {
	for _, s := range synthdata.HurricaneSpecs() {
		if s.Name == name {
			return s
		}
	}
	panic("bench: unknown hurricane field " + name)
}

// synthSlices synthesizes nz edge×edge slices of each named field, two
// fields at a time, and returns them indexed [field][z].
func synthSlices(fields []string, nz, edge int) [][]*grid.Buffer {
	out := make([][]*grid.Buffer, len(fields))
	forEach(len(fields), 2, func(i int) {
		vol := synthdata.Volume("hurricane", hurricaneSpec(fields[i]), nz, edge, edge, inputSeed)
		out[i] = vol.Slices()
	})
	return out
}

// synthSeries synthesizes one AR(1) temporal series of steps slices per
// field, indexed [field][step].
func synthSeries(fields []string, steps, edge int, seed int64) [][]*grid.Buffer {
	out := make([][]*grid.Buffer, len(fields))
	forEach(len(fields), 2, func(i int) {
		out[i] = synthdata.Temporal("hurricane", hurricaneSpec(fields[i]), steps, edge, edge, seed, 0.9)
	})
	return out
}

// forEach runs fn(0..n-1) on at most workers goroutines and waits.
func forEach(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(n, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// roundToF32 narrows every value to float32 precision in place, so the
// float64 buffer holds exactly what a dtype-f32 stream carries.
func roundToF32(b *grid.Buffer) {
	for i, v := range b.Data {
		b.Data[i] = float64(float32(v))
	}
}

// mix is the splitmix64 finalizer over a running combination of words.
func mix(words ...uint64) uint64 {
	var x uint64 = 0x9e3779b97f4a7c15
	for _, w := range words {
		x ^= w + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// patch is the one element an op replaces in a base buffer.
type patch struct {
	elem  int
	value float64
}

// patchScale sizes an op's patch relative to its buffer's value range:
// the patched element always changes, even at float32 precision, while
// the op's features and true ratio stay those of its base, so the seed
// does not move the accuracy metrics.
const patchScale = 1e-6

// patchFor derives the patch of item `item` of op `op` under seed: one
// element of data nudged by ±[0.5, 1)·patchScale·span, where span is the
// buffer's value range.
func patchFor(seed int64, op, item int, data []float64, span float64) patch {
	h := mix(uint64(seed), uint64(op), uint64(item))
	u := 0.5 + float64(mix(h)>>12)/(1<<53) // [0.5, 1)
	if h&1 == 1 {
		u = -u
	}
	j := int(h>>1) % len(data)
	return patch{elem: j, value: data[j] + u*patchScale*span}
}

// valueRange returns hi − lo of a buffer's values.
func valueRange(b *grid.Buffer) float64 {
	lo, hi := b.Range()
	return hi - lo
}

// patched returns a copy of base with the patch applied.
func patched(base *grid.Buffer, p patch) *grid.Buffer {
	b := base.Clone()
	b.Data[p.elem] = p.value
	return b
}

// digestOf is the sha256 of a workload's inputs: every base buffer's
// values, then every op's patches.
func digestOf(bases []*grid.Buffer, p params, patches func(op int) []patch) string {
	h := sha256.New()
	var w [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	for _, b := range bases {
		for _, v := range b.Data {
			put(math.Float64bits(v))
		}
	}
	for op := 0; op < p.warmup+p.ops; op++ {
		for i, pt := range patches(op) {
			put(uint64(op))
			put(uint64(i))
			put(uint64(pt.elem))
			put(math.Float64bits(pt.value))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jsonBase is a base buffer pre-rendered as the `data` array of a
// server.EstimateRequest, with the byte offset of every element, so an
// op's body is spliced together in one copy instead of re-encoding
// hundreds of thousands of floats per request.
type jsonBase struct {
	buf  *grid.Buffer
	span float64
	text []byte  // the array's elements, without brackets
	offs []int32 // offs[j] = start of element j; offs[n] = len(text)+1
}

func newJSONBase(buf *grid.Buffer) (*jsonBase, error) {
	raw, err := json.Marshal(buf.Data)
	if err != nil {
		return nil, fmt.Errorf("encode base %s: %w", buf.Field, err)
	}
	b := &jsonBase{buf: buf, span: valueRange(buf), text: raw[1 : len(raw)-1]}
	b.offs = make([]int32, 0, len(buf.Data)+1)
	b.offs = append(b.offs, 0)
	for i, c := range b.text {
		if c == ',' {
			b.offs = append(b.offs, int32(i+1))
		}
	}
	b.offs = append(b.offs, int32(len(b.text)+1))
	return b, nil
}

// body appends to dst the JSON request a Go client would send for the
// base with patch p at bound eps: byte for byte what encoding/json makes
// of server.EstimateRequest{Field: rid, Rows, Cols, Data, Eps}. The field
// name carries the request ID, which lets the traced run attribute
// feature-cache computations to their request.
func (b *jsonBase) body(dst []byte, rid string, p patch, eps float64) []byte {
	dst = fmt.Appendf(dst, `{"field":%q,"rows":%d,"cols":%d,"data":[`, rid, b.buf.Rows, b.buf.Cols)
	dst = append(dst, b.text[:b.offs[p.elem]]...)
	dst = appendJSONFloat(dst, p.value)
	dst = append(dst, b.text[b.offs[p.elem+1]-1:]...)
	dst = append(dst, `],"eps":`...)
	dst = appendJSONFloat(dst, eps)
	return append(dst, '}')
}

func appendJSONFloat(dst []byte, v float64) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only NaN/Inf fail, and patches and bounds are finite
	}
	return append(dst, raw...)
}

// streamBase is one temporal series pre-encoded as a dtype-f32 CRBS
// stream in 32-row chunks; an op patches four payload bytes.
type streamBase struct {
	slices []*grid.Buffer // float32-rounded values
	spans  []float64      // value range of each slice
	raw    []byte
}

// streamChunkRows is the CRBS chunk height the stream workload sends.
const streamChunkRows = 32

func newStreamBase(slices []*grid.Buffer) (*streamBase, error) {
	var enc bytes.Buffer
	for _, s := range slices {
		roundToF32(s)
	}
	if err := grid.EncodeBuffers(&enc, slices, grid.DTypeF32, streamChunkRows); err != nil {
		return nil, fmt.Errorf("encode stream base: %w", err)
	}
	b := &streamBase{slices: slices, raw: enc.Bytes()}
	for _, s := range slices {
		b.spans = append(b.spans, valueRange(s))
	}
	return b, nil
}

// patchFor derives op's patch on the series: slice op mod the slice
// count, with the element index flattened over the series.
func (b *streamBase) patchFor(seed int64, op int) patch {
	s := op % len(b.slices)
	p := patchFor(seed, op, 0, b.slices[s].Data, b.spans[s])
	p.elem += s * len(b.slices[0].Data)
	return p
}

// elems is the element count of the whole series.
func (b *streamBase) elems() int { return len(b.slices) * len(b.slices[0].Data) }

// body appends the base stream with flat element p.elem replaced by the
// float32 narrowing of p.value. The offset follows the CRBS framing: a
// 20-byte header, then per chunk a 4-byte row count and the rows.
func (b *streamBase) body(dst []byte, p patch) []byte {
	cols := b.slices[0].Cols
	row := p.elem / cols
	off := 20 + 4*(row/streamChunkRows+1) + 4*p.elem
	dst = append(dst, b.raw...)
	binary.LittleEndian.PutUint32(dst[len(dst)-len(b.raw)+off:], math.Float32bits(float32(p.value)))
	return dst
}

// slicesWith returns the series' float64 slices with the patch applied.
func (b *streamBase) slicesWith(p patch) []*grid.Buffer {
	n := len(b.slices[0].Data)
	out := make([]*grid.Buffer, len(b.slices))
	copy(out, b.slices)
	s := p.elem / n
	out[s] = patched(b.slices[s], patch{elem: p.elem % n, value: float64(float32(p.value))})
	return out
}
