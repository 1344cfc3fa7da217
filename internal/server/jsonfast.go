package server

import (
	"encoding/binary"
	"io"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file is decodeBody's fast path: a strict scanner for the request
// shape every estimate client sends, EstimateRequest, over the body read
// once into one buffer. It accepts only input whose value encoding/json
// reproduces exactly and declines everything else, so the reference
// decoder still answers — with its own status, kind and message — for any
// input the scanner does not fully recognize. It declines:
//
//   - a key other than the exact lower-case field names (encoding/json
//     folds case), and a repeated key;
//   - a string holding a backslash, a control byte or a non-ASCII byte
//     (the reference unescapes and replaces invalid UTF-8);
//   - null, true, false and values of the wrong JSON type;
//   - a fraction or exponent on rows, cols or step;
//   - a token outside the JSON number grammar, and a number that
//     strconv.ParseFloat or strconv.Atoi rejects, such as 1e400 (the
//     reference saves that error and keeps decoding, so only it
//     reproduces the message);
//   - anything but JSON whitespace after the document.
//
// encoding/json decodes a float64 field with strconv.ParseFloat, which
// returns the correctly rounded double. The scanner reads each number
// once, checking the grammar and building its decimal mantissa and
// exponent in the same pass, and converts them itself when that is
// certain to give the correctly rounded double too (see decimalFloat).
// The correctly rounded double is unique, so such a value equals
// ParseFloat's bit for bit; every other token goes to ParseFloat.
// FuzzParseFloat checks the conversion against ParseFloat, and
// FuzzDecodeRequest whole bodies against encoding/json.

// decodeFast decodes the whole body b into er, or reports false and
// leaves er untouched.
func (er *EstimateRequest) decodeFast(b []byte) bool {
	s := scanner{b: b}
	var v EstimateRequest
	if !s.estimate(&v) || !s.end() {
		return false
	}
	*er = v
	return true
}

// The EstimateRequest keys, one bit each in scanner.estimate's record of
// the keys seen.
const (
	keyDataset = 1 << iota
	keyField
	keyStep
	keyRows
	keyCols
	keyData
	keyEps
)

// scanner walks one body. Every method skips the JSON whitespace before
// its token.
type scanner struct {
	b []byte
	i int
}

// estimate scans one EstimateRequest object into er.
func (s *scanner) estimate(er *EstimateRequest) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	seen := 0
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		var bit int
		switch string(key) {
		case "dataset":
			bit = keyDataset
		case "field":
			bit = keyField
		case "step":
			bit = keyStep
		case "rows":
			bit = keyRows
		case "cols":
			bit = keyCols
		case "data":
			bit = keyData
		case "eps":
			bit = keyEps
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		switch bit {
		case keyDataset:
			er.Dataset, ok = s.text()
		case keyField:
			er.Field, ok = s.text()
		case keyStep:
			er.Step, ok = s.integer()
		case keyRows:
			er.Rows, ok = s.integer()
		case keyCols:
			er.Cols, ok = s.integer()
		case keyData:
			er.Data, ok = s.floats(s.dataCap(er, seen))
		case keyEps:
			er.Eps, ok = s.float()
		}
		if !ok {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// dataCap is the capacity to pre-size data with: rows×cols when both
// came before it and the rest of the body can hold that many numbers at
// two bytes each (a digit and a separator); otherwise 0, and the array
// grows by appending. A declared shape thus never buys capacity the body
// does not carry.
func (s *scanner) dataCap(er *EstimateRequest, seen int) int {
	room := (len(s.b) - s.i) / 2
	if seen&(keyRows|keyCols) != keyRows|keyCols || er.Rows <= 0 || er.Cols <= 0 || er.Rows > room/er.Cols {
		return 0
	}
	return er.Rows * er.Cols
}

// floats scans an array of numbers into a slice of capacity c. An empty
// array is an empty, non-nil slice, as encoding/json makes it.
func (s *scanner) floats(c int) ([]float64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := make([]float64, 0, c)
	if s.consume(']') {
		return out, true
	}
	for {
		f, ok := s.float()
		if !ok {
			return nil, false
		}
		out = append(out, f)
		if !s.consume(',') {
			return out, s.consume(']')
		}
	}
}

// float scans a number as encoding/json decodes a float64 field: with the
// value number read when decimalFloat can convert it, otherwise with
// strconv.ParseFloat on the token.
func (s *scanner) float() (float64, bool) {
	tok, man, exp10, long, _ := s.number()
	if tok == nil {
		return 0, false
	}
	if !long {
		if f, ok := decimalFloat(man, exp10, tok[0] == '-'); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// integer scans an int the way encoding/json decodes one: a number token
// without fraction or exponent, in range.
func (s *scanner) integer() (int, bool) {
	tok, _, _, _, integral := s.number()
	if tok == nil || !integral {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// maxDigits is the most significant decimal digits a uint64 holds: 10^19
// < 2^64.
const maxDigits = 19

// number scans one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning a nil token
// when the input does not start with one. The byte after the token is
// left to the caller's structure check, which rejects `01` or `1x`.
// integral reports that the token has neither fraction nor exponent.
//
// In the same pass it reads the token's magnitude as man × 10^exp10,
// unless long: the token has more than maxDigits significant digits, of
// which man holds only the first maxDigits. Integer digits are read one
// at a time, fraction digits eight at a time while they fit in man. The
// zeros that follow "0." only scale the value, so they move exp10 instead
// of using up digits: a small magnitude such as 0.000123456789012345
// keeps all its digits.
func (s *scanner) number() (tok []byte, man uint64, exp10 int, long, integral bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	nd := 0 // significant digits seen
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxDigits {
				man = man*10 + uint64(b[i]-'0')
			}
			nd++
		}
	default:
		return nil, 0, 0, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		i++
		frac := i
		if man == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
			exp10 = frac - i
		}
		for nd <= maxDigits-8 && len(b)-i >= 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(v) {
				break
			}
			man = man*1e8 + eightDigitValue(v)
			nd += 8
			exp10 -= 8
			i += 8
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxDigits {
				man = man*10 + uint64(b[i]-'0')
				exp10--
			}
			nd++
		}
		if i == frac {
			return nil, 0, 0, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, 0, 0, false, false
		}
		// Stop growing at 10000 as strconv does: the exponent cannot
		// overflow, and it is the one ParseFloat reads, which is not
		// the token's where leading zeros offset an exponent of 100000
		// or more.
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			exp10 -= e
		} else {
			exp10 += e
		}
	}
	tok, s.i = b[s.i:i], i
	return tok, man, exp10, nd > maxDigits, integral
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eightDigits reports whether the eight bytes of v are all ASCII digits:
// each byte's high nibble is 3, and stays 3 when 6 is added.
func eightDigits(v uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return v&hi|(v+0x0606060606060606)&hi>>4 == 0x3333333333333333
}

// eightDigitValue returns the number spelled by the eight ASCII digits of
// v, the first in the low byte, in three multiplies: adjacent digits
// combine into pairs, then the four pairs into one value.
func eightDigitValue(v uint64) uint64 {
	const pairs = 0x000000FF000000FF
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte 2k: 10×digit 2k + digit 2k+1
	return ((v&pairs)*(100+1000000<<32) + (v>>16&pairs)*(1+10000<<32)) >> 32
}

// decimalFloat converts ±man × 10^exp10 in the two steps
// strconv.ParseFloat takes, each of which answers only with the correctly
// rounded double:
//   - one multiply or divide, when man < 2^53 and |exp10| ≤ 22 make both
//     factors exact doubles, so IEEE arithmetic rounds the product once;
//   - otherwise Eisel–Lemire.
//
// It reports false wherever Eisel–Lemire cannot decide; the caller then
// hands the token to ParseFloat.
func decimalFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp10, neg)
}

// exactPow10 holds the powers of ten that are exact doubles.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire returns ±man × 10^exp10 rounded to the nearest double, ties
// to even, by the Eisel–Lemire algorithm (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021). It reports false when the truncated
// 128-bit product cannot decide the rounding, and when the result is
// subnormal or infinite or exp10 is outside the table: strconv handles
// those.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	// Normalize man to a set top bit. 217706/2^16 ≈ log2(10) gives the
	// product's binary exponent, with float64's bias of 1023.
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	// The table rounds 10^exp10 down, so the true product lies below
	// hi:lo + man. Only when that can carry into the 9 bits under the 55
	// kept, all ones, does the table's low word matter; if the wider
	// product is still that close, the rounding is undecided.
	pow := &pow10Table[exp10-pow10Min]
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		midHi, midLo := bits.Mul64(man, pow[1])
		lo += midHi
		if lo < midHi {
			hi++
		}
		if hi&0x1FF == 0x1FF && lo+1 == 0 && midLo+man < man {
			return 0, false
		}
	}

	// Keep 54 bits, the double's 53 and one to round with. A product
	// whose bits below those are all zero may be exactly halfway, which
	// the truncated product cannot tell from just above.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 { // rounding carried into a 54th bit
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal or zero (exp2 0 or wrapped below), or infinite
		return 0, false
	}
	f := exp2<<52 | m&(1<<52-1)
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}

// pow10Min and pow10Max bound the table's exponents, as strconv's does:
// past them every 19-digit mantissa underflows to zero or overflows.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds 10^e for e in [pow10Min, pow10Max], row e-pow10Min,
// as a 128-bit mantissa with its top bit set, rounded down: {high 64
// bits, low 64 bits}. It is built once, from exact big.Int arithmetic.
var pow10Table = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	one, ten := big.NewInt(1), big.NewInt(10)
	p := big.NewInt(1) // 10^e
	var m big.Int
	for e := 0; e <= -pow10Min; e++ {
		if e <= pow10Max {
			// 10^e is an integer: shift it to 128 bits.
			if n := p.BitLen() - 128; n > 0 {
				m.Rsh(p, uint(n))
			} else {
				m.Lsh(p, uint(-n))
			}
			t[e-pow10Min] = halves(&m)
		}
		if e > 0 {
			// 2^(L-1) < 10^e < 2^L for L its bit length, so
			// ⌊2^(127+L) / 10^e⌋ lies in [2^127, 2^128).
			m.Lsh(one, uint(127+p.BitLen()))
			t[-e-pow10Min] = halves(m.Quo(&m, p))
		}
		p.Mul(p, ten)
	}
	return t
}()

// halves splits a 128-bit x into its high and low 64 bits.
func halves(x *big.Int) [2]uint64 {
	var b [16]byte
	x.FillBytes(b[:])
	return [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

func (s *scanner) text() (string, bool) {
	b, ok := s.str()
	return string(b), ok
}

// str scans a string of printable ASCII without escapes and returns its
// contents, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// consume skips whitespace and then the byte c, reporting whether c was
// there; on false only the whitespace is consumed.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// minRead caps readBody's first buffer: the size of encoding/json's
// first refill, so a body that sends nothing pins no more than a
// streaming decode would.
const minRead = 512

// readBody reads r to its end into one buffer, for a body of at most n
// bytes: its declared length, or the size cap when that is unknown. The
// buffer starts at no more than minRead bytes and grows fourfold only when
// full, so it never holds more than minRead bytes or four times the bytes
// that arrived: a client that declares a large body and sends little pins
// little. The growth is aligned to end at n+1 bytes, the extra byte
// leaving room to see EOF, so the last buffer is exactly what a body of n
// bytes needs and the ones before it add at most a third as much again.
// err is the first read error other than io.EOF; buf holds every byte
// read before it.
func readBody(r io.Reader, n int64) (buf []byte, err error) {
	want := n + 1
	first := want
	for first > minRead {
		first = (first + 3) / 4
	}
	buf = make([]byte, 0, first)
	for {
		if len(buf) == cap(buf) {
			next := 4 * cap(buf)
			if c := int64(cap(buf)); c < want && 4*c > want {
				next = int(want)
			}
			grown := make([]byte, len(buf), next)
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader replays a read error, after the bytes read before it, to the
// reference decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
