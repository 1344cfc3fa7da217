package server

import (
	"io"
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
// Numbers go through strconv.ParseFloat, as encoding/json decodes a
// float64 field, so every accepted value is bit-identical to the
// reference's by construction; FuzzDecodeRequest checks it.

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

func (s *scanner) float() (float64, bool) {
	tok, _ := s.number()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// integer scans an int the way encoding/json decodes one: a number token
// without fraction or exponent, in range.
func (s *scanner) integer() (int, bool) {
	tok, integral := s.number()
	if tok == nil || !integral {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// number scans one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning nil when the
// input does not start with one. integral reports that the token has
// neither fraction nor exponent. The byte after the token is left to the
// caller's structure check, which rejects `01` or `1x`.
func (s *scanner) number() (tok []byte, integral bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return nil, false
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	tok, s.i = b[s.i:i], i
	return tok, integral
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

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
