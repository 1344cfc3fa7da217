package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/retry"
)

// newObsServer is newTestServer with an isolated metrics registry wired
// through every layer (server, engine, feature cache), so assertions on
// registry contents cannot be polluted by other tests sharing the
// process-wide default registry.
func newObsServer(t testing.TB, cfg Config) (*testServer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	env := newTestServer(t, cfg, false)
	env.srv.engine.SetObs(reg)
	env.srv.engine.Cache().SetObs(reg)
	return env, reg
}

// wireErrorOf decodes the {"error": {...}} body.
func wireErrorOf(t testing.TB, body []byte) WireError {
	t.Helper()
	var m map[string]WireError
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return m["error"]
}

// TestOversizedBodyIs413: a body over MaxBodyBytes must map to 413 with
// its own wire kind — the regression test for the pre-fix behavior that
// folded the MaxBytesReader failure into the generic 400 invalid_buffer.
// The valid body is sent with its length declared and sent chunked, of
// unknown length.
func TestOversizedBodyIs413(t *testing.T) {
	env, _ := newObsServer(t, Config{MaxBodyBytes: 64})
	valid := estimateBody(t, 24, 24, 1)
	for _, src := range []io.Reader{bytes.NewReader(valid), io.MultiReader(bytes.NewReader(valid))} {
		resp, body := postReader(t, env.ts.URL+"/v1/estimate", src)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%T body: status %d, want 413: %s", src, resp.StatusCode, body)
		}
		if we := wireErrorOf(t, body); we.Kind != "body_too_large" {
			t.Fatalf("%T body: kind %q, want body_too_large (%s)", src, we.Kind, we.Message)
		}
	}
}

// TestTruncatedBodyIs400: a body that ends before its declared length
// gets the reference decoder's answer to the bytes that arrived followed
// by the read error.
func TestTruncatedBodyIs400(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	body := estimateBody(t, 16, 16, 1)
	conn, err := net.Dial("tcp", env.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/estimate HTTP/1.1\r\nHost: crest\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2])
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const msg = "crest: invalid buffer: body: unexpected EOF"
	if we := wireErrorOf(t, out); resp.StatusCode != http.StatusBadRequest || we.Kind != "invalid_buffer" || we.Message != msg {
		t.Fatalf("got %d %q %q, want 400 invalid_buffer %q", resp.StatusCode, we.Kind, we.Message, msg)
	}
}

// TestTrailingDataRejected: a concatenated second JSON document after the
// request must be rejected, not silently ignored.
func TestTrailingDataRejected(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	body := append(estimateBody(t, 16, 16, 1), []byte(` {"rows":1}`)...)
	resp, out := postJSON(t, env.ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
	}
	we := wireErrorOf(t, out)
	if we.Kind != "invalid_buffer" || !strings.Contains(we.Message, "trailing") {
		t.Fatalf("kind %q message %q, want invalid_buffer mentioning trailing data", we.Kind, we.Message)
	}
}

// TestUnknownFieldsRejected: a misspelled field must fail loudly instead
// of silently zeroing the parameter it was meant to set.
func TestUnknownFieldsRejected(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	var req map[string]any
	if err := json.Unmarshal(estimateBody(t, 16, 16, 1), &req); err != nil {
		t.Fatal(err)
	}
	req["epz"] = req["eps"] // typo: would decode to eps=0 pre-fix
	delete(req, "eps")
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, env.ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
	}
	we := wireErrorOf(t, out)
	if we.Kind != "invalid_buffer" || !strings.Contains(we.Message, "epz") {
		t.Fatalf("kind %q message %q, want invalid_buffer naming the unknown field", we.Kind, we.Message)
	}
}

// TestClientServerErrorSplit: malformed input counts as a client error,
// never a server error, and the wire `failed` stays the sum of both.
func TestClientServerErrorSplit(t *testing.T) {
	env, reg := newObsServer(t, Config{})
	resp, _ := postJSON(t, env.ts.URL+"/v1/estimate", []byte(`{not json`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	st := env.srv.Stats()
	if st.ClientErrors != 1 || st.ServerErrors != 0 {
		t.Fatalf("client/server errors = %d/%d, want 1/0", st.ClientErrors, st.ServerErrors)
	}
	if st.Failed != st.ClientErrors+st.ServerErrors {
		t.Fatalf("failed %d != client %d + server %d", st.Failed, st.ClientErrors, st.ServerErrors)
	}
	snap := reg.Snapshot()
	if snap.Counters["server_client_errors_total"] != 1 || snap.Counters["server_server_errors_total"] != 0 {
		t.Fatalf("registry mirror: %+v", snap.Counters)
	}
}

// TestBatchErrorSplit: per-item failures inside a batch split the same
// way, and the batch call itself still serves 200.
func TestBatchErrorSplit(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	wire := BatchWireRequest{Requests: []EstimateRequest{
		{Rows: 16, Cols: 16, Data: testBuffer(16, 16, 1), Eps: 1e-3},
		{Rows: 16, Cols: 16, Data: testBuffer(16, 16, 1), Eps: -1}, // invalid eps
	}}
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, env.ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	st := env.srv.Stats()
	if st.ClientErrors != 1 || st.ServerErrors != 0 {
		t.Fatalf("client/server errors = %d/%d, want 1/0", st.ClientErrors, st.ServerErrors)
	}
}

// TestRetryAfterRoundingOnWire pins the header end-to-end (through a
// real 503) for exact-second, sub-second (round up, never down to a
// too-early retry) and zero (default 1s) configurations.
func TestRetryAfterRoundingOnWire(t *testing.T) {
	cases := []struct {
		name string
		cfg  time.Duration
		want string
	}{
		{"exact-second", 2 * time.Second, "2"},
		{"sub-second-rounds-up", 1500 * time.Millisecond, "2"},
		{"zero-defaults-to-1s", 0, "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, _ := newObsServer(t, Config{RetryAfter: tc.cfg})
			env.srv.SetReady(false)
			resp, err := http.Get(env.ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.want {
				t.Fatalf("Retry-After %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRetryAfterHintClampedByPolicy is the server⇄retry interplay: a
// Retry-After hint larger than the client policy's MaxDelay must be
// clamped by Policy.Do, so a misconfigured (or adversarial) server
// cannot stall a client beyond its own backoff ceiling.
func TestRetryAfterHintClampedByPolicy(t *testing.T) {
	env, _ := newObsServer(t, Config{RetryAfter: 30 * time.Second})
	env.srv.SetReady(false)
	resp, err := http.Get(env.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("unparseable Retry-After %q", resp.Header.Get("Retry-After"))
	}
	hint := time.Duration(secs) * time.Second

	var waits []time.Duration
	p := retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Jitter:      -1,
		Sleep: func(_ context.Context, d time.Duration) error {
			waits = append(waits, d)
			return nil
		},
	}
	_ = p.Do(context.Background(), func(context.Context) error {
		return retry.WithRetryAfter(fmt.Errorf("unavailable"), hint)
	})
	if len(waits) != 2 {
		t.Fatalf("%d waits, want 2", len(waits))
	}
	for i, w := range waits {
		if w > p.MaxDelay {
			t.Fatalf("wait %d = %v exceeds MaxDelay %v despite %v hint", i, w, p.MaxDelay, hint)
		}
	}
}

// TestMetricsEndpoint: GET /metrics returns valid JSON carrying the
// per-endpoint latency histograms with quantiles, the occupancy gauges,
// the featcache counters and the derived hit rate.
func TestMetricsEndpoint(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	body := estimateBody(t, 24, 24, 1)
	for i := 0; i < 2; i++ {
		if resp, out := postJSON(t, env.ts.URL+"/v1/estimate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	// The cache keys on buffer content, so the repeated wire request
	// hits; a buffer looked up directly on the shared cache twice adds
	// one more miss and one more hit.
	buf, err := grid.FromSlice(16, 16, testBuffer(16, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	cache := env.srv.engine.Cache()
	for i := 0; i < 2; i++ {
		if _, err := cache.Features(buf, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var payload MetricsPayload
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&payload); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	resp.Body.Close()

	h, ok := payload.Histograms["http_request_seconds_estimate"]
	if !ok {
		t.Fatalf("no estimate latency histogram; have %v", keysOf(payload.Histograms))
	}
	if h.Count != 2 {
		t.Fatalf("estimate latency count %d, want 2", h.Count)
	}
	if h.P50 <= 0 || h.P90 < h.P50 || h.P99 < h.P90 {
		t.Fatalf("implausible quantiles p50=%g p90=%g p99=%g", h.P50, h.P90, h.P99)
	}
	for _, g := range []string{"server_queue_depth", "server_inflight"} {
		if _, ok := payload.Gauges[g]; !ok {
			t.Fatalf("gauge %s missing; have %v", g, payload.Gauges)
		}
	}
	if payload.Counters["server_served_total"] != 2 {
		t.Fatalf("server_served_total = %d, want 2", payload.Counters["server_served_total"])
	}
	// 2 dataset misses (the wire buffer + the direct one) and 2 dataset
	// hits (the repeated wire request + the repeated direct lookup).
	if payload.Counters["featcache_dataset_hits_total"] != 2 ||
		payload.Counters["featcache_dataset_misses_total"] != 2 {
		t.Fatalf("featcache counters: %+v", payload.Counters)
	}
	if want := cache.Stats().HitRate(); payload.Derived.FeatcacheHitRate != want || want <= 0 || want >= 1 {
		t.Fatalf("featcache_hit_rate = %g, want %g in (0,1)", payload.Derived.FeatcacheHitRate, want)
	}

	// Batch-stage histograms recorded through the engine's registry.
	for _, name := range []string{"batch_feature_seconds", "batch_estimate_seconds", "batch_request_seconds"} {
		if h := payload.Histograms[name]; h.Count == 0 {
			t.Fatalf("%s empty; have %v", name, keysOf(payload.Histograms))
		}
	}
}

// TestEpsSearchOverHTTPHitsAcrossRequests: the probes of an ε search send
// one buffer at several bounds, each as its own request with its own
// decoded *grid.Buffer. The dataset features are computed once and every
// later probe hits; only the distortion is computed per bound.
func TestEpsSearchOverHTTPHitsAcrossRequests(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	data := testBuffer(24, 24, 3)
	for _, eps := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		body := mustJSON(t, EstimateRequest{Rows: 24, Cols: 24, Data: data, Eps: eps})
		if resp, out := postJSON(t, env.ts.URL+"/v1/estimate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("eps %g: status %d: %s", eps, resp.StatusCode, out)
		}
	}
	st := env.srv.engine.Cache().Stats()
	if st.DatasetMisses != 1 || st.DatasetHits != 3 {
		t.Fatalf("4-probe search: %d dataset misses and %d hits, want 1 and 3", st.DatasetMisses, st.DatasetHits)
	}
	if st.EBMisses != 4 || st.EBHits != 0 {
		t.Fatalf("4-probe search: %d distortion misses and %d hits, want 4 and 0", st.EBMisses, st.EBHits)
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPredictorHistogramsOnDefaultRegistry: the predictor stage timings
// land on the process-wide default registry (package-level handles), so
// any estimate traffic populates them.
func TestPredictorHistogramsOnDefaultRegistry(t *testing.T) {
	env, _ := newObsServer(t, Config{})
	if resp, out := postJSON(t, env.ts.URL+"/v1/estimate", estimateBody(t, 24, 24, 9)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	snap := obs.Default().Snapshot()
	for _, name := range []string{
		"predictor_sd_seconds", "predictor_sc_seconds",
		"predictor_coding_gain_seconds", "predictor_cov_svd_seconds",
		"predictor_distortion_seconds",
	} {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Fatalf("predictor series %s missing/empty on default registry", name)
		}
	}
}

// TestRequestIDThreading: the header is adopted, echoed, and stamped
// into engine-side batch errors; absent a header, an ID is minted.
func TestRequestIDThreading(t *testing.T) {
	env, _ := newObsServer(t, Config{})

	// A 4×4 buffer passes wire validation but cannot be tiled at K=8, so
	// the failure happens inside the engine where the rid is stamped.
	req := EstimateRequest{Rows: 4, Cols: 4, Data: make([]float64, 16), Eps: 1e-3}
	for i := range req.Data {
		req.Data[i] = float64(i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", env.ts.URL+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", "rid-under-test-42")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	out := new(bytes.Buffer)
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "rid-under-test-42" {
		t.Fatalf("response rid %q, want the client's", got)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
	}
	if we := wireErrorOf(t, out.Bytes()); !strings.Contains(we.Message, "rid rid-under-test-42") {
		t.Fatalf("engine error lost the request ID: %q", we.Message)
	}

	// No header: the server mints one.
	resp2, _ := postJSON(t, env.ts.URL+"/healthz", nil)
	if rid := resp2.Header.Get("X-Request-ID"); len(rid) != 16 {
		t.Fatalf("minted rid %q, want 16 hex chars", rid)
	}
}

// TestMetricsUnderConcurrency hammers estimates, stats and metrics reads
// concurrently; under -race it proves the whole instrumented path —
// histograms, gauges, mirrored counters, snapshots — is race-free.
func TestMetricsUnderConcurrency(t *testing.T) {
	env, reg := newObsServer(t, Config{})
	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := estimateBody(t, 16, 16, int64(g%3))
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					resp, err := http.Post(env.ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
					if err == nil {
						resp.Body.Close()
					}
				case 1:
					resp, err := http.Get(env.ts.URL + "/metrics")
					if err == nil {
						var p MetricsPayload
						if derr := json.NewDecoder(resp.Body).Decode(&p); derr != nil {
							t.Errorf("metrics decode: %v", derr)
						}
						resp.Body.Close()
					}
				case 2:
					reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if snap.Gauges["server_inflight"] != 0 || snap.Gauges["server_queue_depth"] != 0 {
		t.Fatalf("occupancy gauges nonzero at rest: %+v", snap.Gauges)
	}
	served := snap.Counters["server_served_total"]
	if served == 0 || served != env.srv.Stats().Served {
		t.Fatalf("served mirror %d vs stats %d", served, env.srv.Stats().Served)
	}
}
