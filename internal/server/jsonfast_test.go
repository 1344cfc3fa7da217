package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"regexp"
	"strconv"
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

// floatCases are number tokens at the edges of the conversion: signed
// zeros, subnormals and the float64 range limits, halfway cases, 19 and
// 20 significant digits in the integer and the fraction part, long runs of
// leading fraction zeros, exponents past the table and past 10000, and
// tokens the JSON grammar cuts short or rejects. They seed FuzzParseFloat.
// Exponents of 2^64+1 and 2^32+1 would wrap an int read without a cap.
// Both tokens of 10000 leading zeros reach the table only through their
// exponent. The first has the value 1; the second has a vast one, but
// ParseFloat stops reading its exponent at 10000 and returns 0.1, which
// the scan must return too.
var floatCases = []string{
	"0", "-0", "-0.0", "0.0", "0e400", "-0E-400", "1", "-1.5", "1E+2", "0.1e-2",
	"5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e-400", "1e400", "1e99999", "-1e-99999", "1e0000000000000000000022",
	"1e18446744073709551617", "1e-18446744073709551617", "1e4294967297", // 2^64+1, 2^32+1
	"9007199254740993", "9007199254740992.5", "4503599627370497.5",
	"9999999999999999999", "10000000000000000000", "12345678901234567891",
	"0.1234567890123456789", "0.12345678901234567891",
	"1.234567890123456789", "1.2345678901234567891",
	"123456789012345678901234", "1.23456789012345678901234e-5",
	"0.000123456789012345678", "0.0001234567890123456789",
	"0.000000000000000000000000000001234567890123456789e10",
	"0.0000000000000000000000000000000000000000000000000000000000001",
	"0." + strings.Repeat("0", 10000) + "1e10001",
	"0." + strings.Repeat("0", 10000) + "1e1000000",
	"12345678.12345678,", "0.12345678]", " \t\r\n1.5",
	"1.", "1e", "1e+", "01", "-", "-x", ".5", "+1", "1.5.3", "1e5e5", "0x1p-2", "",
}

// jsonNumber matches the longest JSON number at the start of the input,
// after whitespace.
var jsonNumber = regexp.MustCompile(`^[ \t\r\n]*-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?`)

// FuzzParseFloat: on any input, scanner.float accepts and declines as
// strconv.ParseFloat does on the token number returns, returns the same
// bits and consumes exactly that token. The token is the longest JSON
// number at the start of the input; number returns none only where the
// input starts with no JSON number or with one whose fraction or exponent
// is cut short.
func FuzzParseFloat(f *testing.F) {
	for _, c := range floatCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := scanner{b: in}
		got, ok := s.float()
		ts := scanner{b: in}
		tok, _, _, _, _ := ts.number()
		m := jsonNumber.Find(in)
		if tok == nil {
			if ok {
				t.Fatalf("%q: float accepted what number declines", in)
			}
			if m != nil && (len(m) == len(in) || !strings.ContainsRune(".eE", rune(in[len(m)]))) {
				t.Fatalf("%q: number declined, the grammar reads %q", in, m)
			}
			return
		}
		if len(m) != ts.i {
			t.Fatalf("%q: number read %q, the grammar reads %q", in, tok, m)
		}
		want, err := strconv.ParseFloat(string(tok), 64)
		if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) || ok && s.i != ts.i {
			t.Fatalf("%q: float %v (%#x), %v, consumed %d; ParseFloat(%q) %v (%#x), %v, token ends at %d",
				in, got, math.Float64bits(got), ok, s.i, tok, want, math.Float64bits(want), err, ts.i)
		}
	})
}

// checkFloat: scanner.float agrees with strconv.ParseFloat on tok.
func checkFloat(t *testing.T, tok string) {
	t.Helper()
	s := scanner{b: []byte(tok)}
	got, ok := s.float()
	want, err := strconv.ParseFloat(tok, 64)
	if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) || ok && s.i != len(tok) {
		t.Errorf("%s: float %v (%#x), %v, consumed %d; ParseFloat %v (%#x), %v",
			tok, got, math.Float64bits(got), ok, s.i, want, math.Float64bits(want), err)
	}
}

// TestFloatEveryTableRow: for every exponent e the power-of-ten table
// covers, 1e<e>, the largest 19-digit mantissa and 2^52+1, each times
// 10^e, convert as strconv.ParseFloat converts them. The 19-digit
// mantissa exceeds 2^53, so it reads every row, through Eisel–Lemire.
func TestFloatEveryTableRow(t *testing.T) {
	for e := pow10Min; e <= pow10Max; e++ {
		for _, m := range []string{"1", "9999999999999999999", "4503599627370497"} {
			checkFloat(t, fmt.Sprintf("%se%d", m, e))
		}
	}
}

// TestFloatPow10TableRows checks every row of the power-of-ten table by
// multiplication, independently of the division that builds it: the row
// is the 128-bit M with its top bit set and M ≤ 10^e·2^s < M+1 for the
// shift s that puts 10^e·2^s in [2^127, 2^128). Four rows are also
// pinned to the published values of strconv's table.
func TestFloatPow10TableRows(t *testing.T) {
	one, ten := big.NewInt(1), big.NewInt(10)
	for e := pow10Min; e <= pow10Max; e++ {
		row := pow10Table[e-pow10Min]
		mant := new(big.Int).SetUint64(row[0])
		mant.Lsh(mant, 64).Add(mant, new(big.Int).SetUint64(row[1]))
		next := new(big.Int).Add(mant, one)
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		// lo ≤ hi < lo' states M ≤ 10^e·2^s < M+1 with every side an integer.
		var lo, hi, lo2 *big.Int
		if s := 128 - p.BitLen(); e >= 0 && s >= 0 {
			lo, hi, lo2 = mant, new(big.Int).Lsh(p, uint(s)), next
		} else if e >= 0 {
			lo, hi, lo2 = new(big.Int).Lsh(mant, uint(-s)), p, new(big.Int).Lsh(next, uint(-s))
		} else {
			lo, hi, lo2 = new(big.Int).Mul(mant, p), new(big.Int).Lsh(one, uint(127+p.BitLen())), new(big.Int).Mul(next, p)
		}
		if row[0]>>63 != 1 || lo.Cmp(hi) > 0 || hi.Cmp(lo2) >= 0 {
			t.Errorf("10^%d: row %#016x %#016x is not its mantissa rounded down", e, row[0], row[1])
		}
	}
	for e, want := range map[int][2]uint64{
		-348: {0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x8000000000000000, 0},
		347:  {0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10Table[e-pow10Min]; got != want {
			t.Errorf("10^%d: row %#x, want %#x", e, got, want)
		}
	}
}

// TestFloatValueDecidesEncodedFloats: every number encoding/json writes
// for the values of a test buffer, at magnitudes around 1, 1e5, 1e-4
// (plain notation with leading fraction zeros) and 1e-8 (exponent
// notation), is converted in the scanner's pass, without
// strconv.ParseFloat, and to ParseFloat's bits.
func TestFloatValueDecidesEncodedFloats(t *testing.T) {
	for _, scale := range []float64{1, 1e-4, 1e-8, 1e5} {
		data := testBuffer(64, 64, 1)
		for i := range data {
			data[i] *= scale
		}
		raw, err := json.Marshal(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range strings.Split(string(raw[1:len(raw)-1]), ",") {
			s := scanner{b: []byte(tok)}
			_, man, exp10, long, _ := s.number()
			got, ok := decimalFloat(man, exp10, tok[0] == '-')
			want, err := strconv.ParseFloat(tok, 64)
			if err != nil || long || !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scale %g: %s: long %v, converted to %v, %v in the scan; ParseFloat %v, %v", scale, tok, long, got, ok, want, err)
			}
		}
	}
}

// numbersBody renders an estimate body of a rows×cols test buffer, each
// value scaled and written by format, as a client other than encoding/json
// might.
func numbersBody(rows, cols int, scale float64, format func([]byte, float64) []byte) []byte {
	body := fmt.Appendf(nil, `{"rows":%d,"cols":%d,"data":[`, rows, cols)
	for i, v := range testBuffer(rows, cols, 1) {
		if i > 0 {
			body = append(body, ',')
		}
		body = format(body, v*scale)
	}
	return append(body, `],"eps":0.001}`...)
}

// BenchmarkDecodeBody times estimate bodies through the fast path (read
// once, scan) and, for comparison, through the reference decoder
// streaming from the reader with a teed copy of the body. The canonical
// bodies are what encoding/json writes for a test buffer; "exponent"
// scales its values to 1e-7, which encoding/json writes in exponent
// notation, and "20digit" writes every value with 20 significant digits,
// one more than the scanner converts itself, so every number takes the
// strconv.ParseFloat fallback.
func BenchmarkDecodeBody(b *testing.B) {
	bodies := []struct {
		name string
		body []byte
	}{
		{"256", estimateBody(b, 256, 256, 1)},
		{"512", estimateBody(b, 512, 512, 1)},
		{"256-exponent", numbersBody(256, 256, 1e-7, func(dst []byte, v float64) []byte {
			return strconv.AppendFloat(dst, v, 'g', -1, 64)
		})},
		{"256-20digit", numbersBody(256, 256, 1, func(dst []byte, v float64) []byte {
			return strconv.AppendFloat(dst, v, 'e', 19, 64)
		})},
	}
	for _, c := range bodies {
		body := c.body
		b.Run("fast/"+c.name, func(b *testing.B) {
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
		b.Run("reference/"+c.name, func(b *testing.B) {
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
