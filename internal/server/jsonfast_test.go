package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/crestlab/crest/internal/testutil"
)

// decodeCases pins which bodies the fast path accepts; every other body
// must reach the reference decoder. They also seed FuzzDecodeRequest.
var decodeCases = []struct {
	body   string
	accept bool
}{
	{`{"field":"f0","rows":2,"cols":2,"data":[0.5,-1.25e-3,3,1E+2],"eps":0.001}`, true},
	{" \t\r\n{ \"rows\" : 2 ,\n\"cols\":2,\"data\":[ 1 , 2 ,3,4 ] ,\"eps\":1e-3 } \n", true},
	{`{"dataset":"d","step":-0,"rows":0,"cols":-1,"eps":-0.0,"data":[1e-400]}`, true},
	{`{}`, true},
	{`{"data":[]}`, true},
	{`{"rows":1000,"cols":1000,"data":[1,2]}`, true},

	{`{"Rows":2}`, false},          // encoding/json folds case
	{`{"rows":2,"rows":2}`, false}, // repeated key
	{`{"data":[1],"data":[2]}`, false},
	{`{"epz":1}`, false},        // unknown key
	{`{"field":"a\"b"}`, false}, // escape
	{`{"field":"\u00e9"}`, false},
	{`{"field":"café"}`, false},        // non-ASCII
	{"{\"field\":\"caf\xe9\"}", false}, // invalid UTF-8
	{"{\"field\":\"a\x01\"}", false},   // control byte
	{`{"data":null}`, false},
	{`{"rows":null}`, false},
	{`{"field":true}`, false},
	{`{"eps":false}`, false},
	{`{"rows":"2"}`, false}, // wrong type
	{`{"field":2}`, false},
	{`{"data":[1,"2"]}`, false},
	{`{"data":{}}`, false},
	{`{"rows":24.0}`, false}, // rows, cols and step are integers
	{`{"cols":2e1}`, false},
	{`{"step":1.5}`, false},
	{`{"rows":99999999999999999999}`, false},
	{`{"eps":01}`, false}, // outside the number grammar
	{`{"eps":.5}`, false},
	{`{"eps":1.}`, false},
	{`{"eps":+1}`, false},
	{`{"eps":-}`, false},
	{`{"eps":1e}`, false},
	{`{"eps":0x1p-2}`, false},
	{`{"data":[NaN]}`, false},
	{`{"data":[1e400]}`, false}, // ParseFloat range error
	{`{"eps":1}{}`, false},      // trailing data
	{`{"eps":1} x`, false},
	{`{"eps":1,}`, false},
	{`{"data":[1,]}`, false},
	{`{"data":[1 2]}`, false},
	{`{"eps":1`, false}, // truncated
	{``, false},
	{`[]`, false},
	{`{"requests":[{}]}`, false}, // a batch body
}

func TestDecodeFastDeclineRule(t *testing.T) {
	for _, c := range decodeCases {
		var er EstimateRequest
		if got := er.decodeFast([]byte(c.body)); got != c.accept {
			t.Errorf("fast path on %q: accepted %v, want %v", c.body, got, c.accept)
		}
	}
}

// FuzzDecodeRequest: for any body, the fast path either declines,
// leaving its receiver untouched, or returns what the reference decoder
// returns — every float bit for bit, a nil data apart from an empty one —
// for a body the reference accepts.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Add(estimateBody(f, 8, 8, 1))
	f.Add(mustJSON(f, EstimateRequest{Dataset: "d", Field: "f", Step: 3, Rows: 2, Cols: 2,
		Data: []float64{1e-300, math.Copysign(0, -1), 5e-324, math.MaxFloat64}, Eps: 1e-3}))
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast, ref EstimateRequest
		if fast.decodeFast(body) {
			if err := decodeJSON(bytes.NewReader(body), &ref); err != nil {
				t.Fatalf("fast path accepted %q, the reference rejects it: %v", body, err)
			}
			if !sameRequest(&fast, &ref) {
				t.Fatalf("%q: fast path %+v, reference %+v", body, fast, ref)
			}
		} else if !sameRequest(&fast, &EstimateRequest{}) {
			t.Fatalf("%q: declining fast path wrote %+v", body, fast)
		}
	})
}

// sameRequest compares two requests field by field, floats bit for bit
// and a nil data apart from an empty one.
func sameRequest(a, b *EstimateRequest) bool {
	if a.Dataset != b.Dataset || a.Field != b.Field || a.Step != b.Step || a.Rows != b.Rows || a.Cols != b.Cols ||
		math.Float64bits(a.Eps) != math.Float64bits(b.Eps) ||
		(a.Data == nil) != (b.Data == nil) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestDecodeFastPresizesData: a canonical body decodes into data of
// exactly rows×cols capacity, while a shape declared over a data array
// the body does not carry buys no more capacity than half its length.
func TestDecodeFastPresizesData(t *testing.T) {
	var er EstimateRequest
	if !er.decodeFast(estimateBody(t, 64, 64, 1)) {
		t.Fatal("fast path declined a canonical 64×64 body")
	}
	if len(er.Data) != 64*64 || cap(er.Data) != 64*64 {
		t.Fatalf("data len %d cap %d, want both %d", len(er.Data), cap(er.Data), 64*64)
	}

	claim := `{"rows":1000,"cols":1000,"data":[1,2]}`
	if !er.decodeFast([]byte(claim)) {
		t.Fatalf("fast path declined %s", claim)
	}
	if cap(er.Data) > len(claim)/2 {
		t.Fatalf("%s: data pre-sized to %d elements, want at most %d", claim, cap(er.Data), len(claim)/2)
	}
}

// TestDecodeFastWarmAllocs: decoding a canonical body makes a fixed number
// of allocations, the data slice, however many numbers it holds.
func TestDecodeFastWarmAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	body := estimateBody(t, 64, 64, 1)
	allocs := testing.AllocsPerRun(20, func() {
		var er EstimateRequest
		if !er.decodeFast(body) {
			t.Fatal("fast path declined a canonical 64×64 body")
		}
	})
	if allocs > 1 {
		t.Errorf("warm decode: %.1f allocs, want at most 1", allocs)
	}
}

// TestReadBodyGrowsOnlyAsBytesArrive: however large the declared length,
// the buffer holds at most minRead bytes or four times the bytes that
// arrived, and a body of its declared length ends in a buffer of exactly
// that length plus the byte that sees EOF.
func TestReadBodyGrowsOnlyAsBytesArrive(t *testing.T) {
	stalled := errors.New("stalled")
	for _, arrived := range []int{0, 10, 513, 100_000} {
		sent := strings.Repeat(" ", arrived)
		buf, err := readBody(io.MultiReader(strings.NewReader(sent), errReader{stalled}), 64<<20)
		if !errors.Is(err, stalled) || string(buf) != sent || cap(buf) > max(minRead, 4*arrived) {
			t.Fatalf("64 MiB body stalled after %d bytes: len %d cap %d, error %v", arrived, len(buf), cap(buf), err)
		}
	}
	body := bytes.Repeat([]byte{' '}, 5<<20+3)
	buf, err := readBody(bytes.NewReader(body), int64(len(body)))
	if err != nil || len(buf) != len(body) || cap(buf) != len(body)+1 {
		t.Fatalf("declared body: len %d cap %d error %v, want len %d cap %d", len(buf), cap(buf), err, len(body), len(body)+1)
	}
}

// BenchmarkDecodeBody times one canonical estimate body through the fast
// path (read once, scan) and, for comparison, through the reference
// decoder streaming from the reader with a teed copy of the body.
func BenchmarkDecodeBody(b *testing.B) {
	for _, n := range []int{256, 512} {
		body := estimateBody(b, n, n, 1)
		b.Run(fmt.Sprintf("fast/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err := readBody(bytes.NewReader(body), int64(len(body)))
				var er EstimateRequest
				if err != nil || !er.decodeFast(buf) {
					b.Fatalf("read error %v, or the fast path declined", err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var raw bytes.Buffer
				var er EstimateRequest
				if err := decodeJSON(io.TeeReader(bytes.NewReader(body), &raw), &er); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
