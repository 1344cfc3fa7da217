package featcache

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/crestlab/crest/internal/grid"
)

// FuzzKeyDerivation hardens the content-key derivation (shape × digest
// of the raw bytes × error bound): equal data in distinct buffers gives
// one key; a changed element or a transposed shape gives another; every
// slot's shard is in range; and bound canonicalization respects float
// equality (±0 fold, NaN collapse).
func FuzzKeyDerivation(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), 0.0)
	f.Add(make([]byte, 8*6), uint8(2), uint8(5), 1e-3)
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(1), uint8(3), math.Inf(1))
	f.Add(make([]byte, 8*12), uint8(7), uint8(200), math.Copysign(0, -1))
	f.Add([]byte{0xff, 0xf8, 0, 0, 0, 0, 0, 0x7f}, uint8(0), uint8(9), math.NaN())
	f.Fuzz(func(t *testing.T, raw []byte, rowsRaw, flip uint8, eps float64) {
		bits := EBBits(eps)
		if bits != EBBits(eps) {
			t.Fatalf("EBBits(%g) not deterministic", eps)
		}
		if eps == 0 && bits != 0 {
			t.Fatalf("EBBits(%g) = %#x, want 0 for zero bound", eps, bits)
		}
		if math.IsNaN(eps) && bits != EBBits(math.NaN()) {
			t.Fatalf("NaN payload %#x not canonicalized", math.Float64bits(eps))
		}
		if !math.IsNaN(eps) && eps != 0 && bits != math.Float64bits(eps) {
			t.Fatalf("EBBits(%g) = %#x mangled a regular bound", eps, bits)
		}

		n := len(raw) / 8
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		rows := 1 + int(rowsRaw)%4
		if n%rows != 0 {
			rows = 1
		}
		cols := 0
		if n > 0 {
			cols = n / rows
		}
		a := &grid.Buffer{Rows: rows, Cols: cols, Data: data}
		b := &grid.Buffer{Rows: rows, Cols: cols, Data: append([]float64(nil), data...), Field: "other"}
		ka, ok := keyOf(a)
		if !ok {
			t.Fatalf("%dx%d buffer with %d values has no key", rows, cols, n)
		}
		if kb, _ := keyOf(b); kb != ka {
			t.Fatalf("equal data in distinct buffers: keys %+v and %+v", ka, kb)
		}
		for _, sl := range []slot{{k: ka, half: dsetHalf}, {k: ka, half: ebHalf, bits: bits}} {
			if i := sl.shard(); i < 0 || i >= NumShards {
				t.Fatalf("shard %d out of [0, %d)", i, NumShards)
			}
		}
		if n == 0 {
			return
		}
		if rows != cols {
			tr := &grid.Buffer{Rows: cols, Cols: rows, Data: data}
			if kt, _ := keyOf(tr); kt == ka {
				t.Fatalf("%dx%d and its transpose shape share key %+v", rows, cols, ka)
			}
		}
		i := int(flip) % n
		b.Data[i] = math.Float64frombits(math.Float64bits(b.Data[i]) ^ (1 << (flip % 64)))
		if kb, _ := keyOf(b); kb == ka {
			t.Fatalf("changing element %d left key %+v unchanged", i, ka)
		}
		if _, ok := keyOf(&grid.Buffer{Rows: rows + 1, Cols: cols, Data: data}); ok {
			t.Fatal("a buffer whose data does not fill its shape got a key")
		}
	})
}
