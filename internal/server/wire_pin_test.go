package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"github.com/crestlab/crest/internal/grid"
)

// TestEstimateErrorWireContract pins the full error response — HTTP
// status, wire kind and message text — for inputs the feature pipeline
// rejects: a buffer smaller than one block and a non-finite value, over
// JSON and over CRBS at both element types, and finite values whose
// global moments overflow float64. Clients match on these strings, so a
// refactor of the predictor front half must not move them.
func TestEstimateErrorWireContract(t *testing.T) {
	env := newTestServer(t, Config{}, false)

	tiny := make([]float64, 16)
	for i := range tiny {
		tiny[i] = float64(i)
	}
	tinyBuf, err := grid.FromSlice(4, 4, tiny)
	if err != nil {
		t.Fatal(err)
	}
	nanBuf, err := grid.FromSlice(24, 24, testBuffer(24, 24, 9))
	if err != nil {
		t.Fatal(err)
	}
	nanBuf.Data[5*24+20] = math.NaN()
	huge := testBuffer(24, 24, 9)
	for i := range huge {
		huge[i] *= 1e160
	}
	stream := func(buf *grid.Buffer, dt grid.DType) []byte {
		var b bytes.Buffer
		if err := grid.EncodeBuffer(&b, buf, dt, 5); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	cases := []struct {
		name        string
		contentType string
		body        []byte
		status      int
		kind, msg   string
	}{
		{
			name:        "json 4x4",
			contentType: "application/json",
			body:        mustJSON(t, EstimateRequest{Rows: 4, Cols: 4, Data: tiny, Eps: 1e-3}),
			status:      http.StatusBadRequest,
			kind:        "invalid_buffer",
			msg:         "batch: rid wire-pin: / step 0 @ eps 0.001: predictors: crest: invalid buffer: buffer dimensions not divisible by block size: 4x4 buffer with k=8",
		},
		{
			name:        "json non-finite",
			contentType: "application/json",
			body:        []byte(`{"rows":2,"cols":2,"data":[1,2,NaN,4],"eps":0.001}`),
			status:      http.StatusBadRequest,
			kind:        "invalid_buffer",
			msg:         "crest: invalid buffer: body: invalid character 'N' looking for beginning of value",
		},
		{
			name:        "json overflowing moments",
			contentType: "application/json",
			body:        mustJSON(t, EstimateRequest{Rows: 24, Cols: 24, Data: huge, Eps: 1e-3}),
			status:      http.StatusBadRequest,
			kind:        "non_finite_data",
			msg:         "batch: rid wire-pin: / step 0 @ eps 0.001: predictors: crest: non-finite data: global moments overflow float64 (mean -8.67168335987431e+157, variance NaN)",
		},
		{
			name:        "crbs f64 4x4",
			contentType: StreamContentType,
			body:        stream(tinyBuf, grid.DTypeF64),
			status:      http.StatusBadRequest,
			kind:        "invalid_buffer",
			msg:         "predictors: crest: invalid buffer: buffer dimensions not divisible by block size: 4x4 slice with k=8",
		},
		{
			name:        "crbs f64 NaN",
			contentType: StreamContentType,
			body:        stream(nanBuf, grid.DTypeF64),
			status:      http.StatusBadRequest,
			kind:        "non_finite_data",
			msg:         "predictors: crest: non-finite data: value at row 5 col 20 is NaN",
		},
		{
			name:        "crbs f32 NaN",
			contentType: StreamContentType,
			body:        stream(nanBuf, grid.DTypeF32),
			status:      http.StatusBadRequest,
			kind:        "non_finite_data",
			msg:         "predictors: crest: non-finite data: value at row 5 col 20 is NaN",
		},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, env.ts.URL+"/v1/estimate?eps=0.001", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.contentType)
		req.Header.Set("X-Request-ID", "wire-pin")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var we map[string]WireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: non-JSON error body: %v", tc.name, err)
		}
		got := we["error"]
		if resp.StatusCode != tc.status || got.Kind != tc.kind || got.Message != tc.msg {
			t.Errorf("%s: got %d %q %q, want %d %q %q",
				tc.name, resp.StatusCode, got.Kind, got.Message, tc.status, tc.kind, tc.msg)
		}
	}
}
