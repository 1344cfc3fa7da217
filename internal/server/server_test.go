package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// trainedEstimator fits a small model on synthetic samples.
func trainedEstimator(t testing.TB) *core.Estimator {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	samples := make([]core.Sample, 60)
	for i := range samples {
		f := make([]float64, 5)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		samples[i] = core.Sample{Features: f, CR: 1 + 8*math.Exp(0.4*f[0]-0.2*f[3])}
	}
	est, err := core.Train(samples, core.Config{Predictors: predictors.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// testBuffer builds a smooth rows×cols buffer.
func testBuffer(rows, cols int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, rows*cols)
	for i := range data {
		r, c := i/cols, i%cols
		data[i] = math.Sin(float64(r)/5)*math.Cos(float64(c)/7) + 0.01*rng.NormFloat64()
	}
	return data
}

// testServer wires an estimator, an optionally slowed feature cache and a
// Server into an httptest listener.
type testServer struct {
	srv  *Server
	ts   *httptest.Server
	gate chan struct{} // close to release gated feature computations
}

// newTestServer builds the stack. When gated is true, every dataset-
// feature computation blocks until the gate closes — the deterministic
// way to hold inflight slots and drive the server to saturation.
func newTestServer(t testing.TB, cfg Config, gated bool) *testServer {
	t.Helper()
	est := trainedEstimator(t)
	pcfg := est.PredictorConfig()
	gate := make(chan struct{})
	var dset featcache.DatasetFunc
	if gated {
		dset = func(buf *grid.Buffer, c predictors.Config) (predictors.DatasetFeatures, error) {
			<-gate
			return predictors.ComputeDataset(buf, c)
		}
	}
	cache := featcache.NewWithCompute(pcfg, dset, nil)
	cfg.Engine = batch.New(est, cache, 8)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testServer{srv: srv, ts: ts, gate: gate}
}

// estimateBody marshals a valid single-estimate request.
func estimateBody(t testing.TB, rows, cols int, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(EstimateRequest{
		Rows: rows, Cols: cols, Data: testBuffer(rows, cols, seed), Eps: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJSON(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postReader(t, url, bytes.NewReader(body))
}

// postReader posts a JSON body read from src. The client declares the
// length of a bytes or strings reader and sends any other reader chunked.
func postReader(t testing.TB, url string, src io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestEstimateEndpoint(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	resp, body := postJSON(t, env.ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !(er.CR >= 1) || er.Lo > er.Hi {
		t.Fatalf("implausible estimate %+v", er)
	}
	if er.CR < er.Lo || er.CR > er.Hi {
		// The point estimate is clamped to [1, cap]; it can leave the raw
		// interval only at the clamp boundary.
		if er.CR != 1 && er.CR != 100 {
			t.Fatalf("point estimate outside interval: %+v", er)
		}
	}
}

func TestEstimateMatchesDirectPath(t *testing.T) {
	est := trainedEstimator(t)
	pcfg := est.PredictorConfig()
	cache := featcache.New(pcfg)
	srv, err := New(Config{Engine: batch.New(est, cache, 4)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rows, cols := 24, 24
	data := testBuffer(rows, cols, 5)
	buf, err := grid.FromSlice(rows, cols, append([]float64(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	feats, err := core.FeaturesOf(buf, 1e-3, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.Estimate(feats)
	if err != nil {
		t.Fatal(err)
	}
	reqBody := mustJSON(t, EstimateRequest{Rows: rows, Cols: cols, Data: data, Eps: 1e-3})
	// A reader of unknown length makes the client send the body chunked;
	// it must get the same answer as the body sent with its length.
	for _, src := range []io.Reader{bytes.NewReader(reqBody), io.MultiReader(bytes.NewReader(reqBody))} {
		resp, body := postReader(t, ts.URL+"/v1/estimate", src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%T body: status %d: %s", src, resp.StatusCode, body)
		}
		var got EstimateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		// JSON float64 round trip is exact; the served numbers must be the
		// direct path's bit for bit.
		if got.CR != want.CR || got.Lo != want.Lo || got.Hi != want.Hi {
			t.Fatalf("%T body: served %+v != direct %+v", src, got, want)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchEndpointPerRequestErrors(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	rows, cols := 24, 24
	good := EstimateRequest{Rows: rows, Cols: cols, Data: testBuffer(rows, cols, 2), Eps: 1e-3}
	badShape := EstimateRequest{Rows: 4, Cols: 4, Data: []float64{1, 2}, Eps: 1e-3}
	badDims := EstimateRequest{Rows: -1, Cols: 4, Data: nil, Eps: 1e-3}
	badEps := EstimateRequest{Rows: rows, Cols: cols, Data: testBuffer(rows, cols, 3), Eps: -1}

	resp, body := postJSON(t, env.ts.URL+"/v1/batch",
		mustJSON(t, BatchWireRequest{Requests: []EstimateRequest{good, badShape, badDims, badEps}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchWireResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Result == nil || out.Results[0].Error != nil {
		t.Errorf("good request failed: %+v", out.Results[0].Error)
	}
	wantKinds := []string{"", "invalid_buffer", "invalid_buffer", "invalid_buffer"}
	for i := 1; i < 4; i++ {
		if out.Results[i].Error == nil {
			t.Errorf("request %d: invalid input accepted", i)
			continue
		}
		if out.Results[i].Error.Kind != wantKinds[i] {
			t.Errorf("request %d: kind %q, want %q", i, out.Results[i].Error.Kind, wantKinds[i])
		}
	}
}

func TestInvalidBodyAndMethodRouting(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	resp, _ := postJSON(t, env.ts.URL+"/v1/estimate", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(env.ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET estimate: status %d, want 405", r.StatusCode)
	}
}

func TestHealthReadyStatsEndpoints(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(env.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, r.StatusCode)
		}
	}
	// Serve one estimate so the counters move.
	postJSON(t, env.ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 7))

	r, err := http.Get(env.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var st StatsPayload
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz not JSON: %v: %s", err, body)
	}
	if st.Server.Served != 1 || st.Server.Accepted != 1 {
		t.Errorf("server counters %+v", st.Server)
	}
	if st.Engine.Requests != 1 || st.Engine.Cache.DatasetMisses != 1 {
		t.Errorf("engine counters %+v", st.Engine)
	}
	if !st.Server.Ready {
		t.Error("server not ready")
	}
}

func TestRequestDeadlineMapsTo504(t *testing.T) {
	est := trainedEstimator(t)
	pcfg := est.PredictorConfig()
	slow := func(buf *grid.Buffer, c predictors.Config) (predictors.DatasetFeatures, error) {
		time.Sleep(150 * time.Millisecond)
		return predictors.ComputeDataset(buf, c)
	}
	cache := featcache.NewWithCompute(pcfg, slow, nil)
	srv, err := New(Config{Engine: batch.New(est, cache, 2), RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 9))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var we map[string]WireError
	if err := json.Unmarshal(body, &we); err != nil {
		t.Fatal(err)
	}
	if we["error"].Kind != "deadline_exceeded" {
		t.Errorf("kind %q", we["error"].Kind)
	}
	if srv.Stats().Timeouts != 1 {
		t.Errorf("timeouts counter %d", srv.Stats().Timeouts)
	}
}

func TestSetReadyFlipsAdmission(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	env.srv.SetReady(false)
	r, err := http.Get(env.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while unready: %d", r.StatusCode)
	}
	resp, _ := postJSON(t, env.ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("estimate while unready: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no Retry-After on unready 503")
	}
	env.srv.SetReady(true)
	resp, _ = postJSON(t, env.ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 1))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("estimate after re-ready: %d", resp.StatusCode)
	}
}

func TestAdmitQueueReleasesOnCallerCancel(t *testing.T) {
	env := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 4}, true)
	// Fill the only slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, env.ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 1))
	}()
	waitFor(t, func() bool { return env.srv.Stats().Inflight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	release, err := env.srv.admit(ctx)
	if err == nil {
		release()
		t.Fatal("admit succeeded with a full semaphore")
	}
	if env.srv.Stats().Queued != 0 {
		t.Errorf("queue slot leaked: %d", env.srv.Stats().Queued)
	}
	close(env.gate)
	wg.Wait()
}

// waitFor polls cond for up to 2s.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

func TestNewRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestRetryAfterRounding(t *testing.T) {
	est := trainedEstimator(t)
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{{time.Second, "1"}, {1500 * time.Millisecond, "2"}, {200 * time.Millisecond, "1"}} {
		srv, err := New(Config{Engine: batch.New(est, nil, 1), RetryAfter: tc.d})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.setRetryAfter(rec)
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("RetryAfter(%s) header %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestStatszJSONShapes(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	r, err := http.Get(env.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"server", "engine"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("statsz missing %q: %s", key, body)
		}
	}
	var eng map[string]json.RawMessage
	if err := json.Unmarshal(raw["engine"], &eng); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng["Cache"]; !ok {
		t.Errorf("engine stats missing feature-cache counters: %s", raw["engine"])
	}
}

func ExampleServer() {
	// Construct a server over a trained engine, then drain it.
	var s *Server
	_ = s
	fmt.Println("see TestEstimateEndpoint")
	// Output: see TestEstimateEndpoint
}
