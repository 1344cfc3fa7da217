package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// encodeTestStream frames the buffers as a CRBS stream.
func encodeTestStream(t testing.TB, bufs []*grid.Buffer, chunkRows int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := grid.EncodeBuffers(&b, bufs, grid.DTypeF64, chunkRows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func postStream(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, StreamContentType, bytes.NewReader(body))
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

// TestStreamEstimateEndpoint posts a 3-slice binary stream and checks
// every slice's estimate equals the in-memory JSON path's estimate for
// the same slice — the end-to-end face of the bit-identity contract.
func TestStreamEstimateEndpoint(t *testing.T) {
	env := newTestServer(t, Config{}, false)

	const rows, cols, steps = 24, 24, 3
	bufs := make([]*grid.Buffer, steps)
	for i := range bufs {
		buf, err := grid.FromSlice(rows, cols, testBuffer(rows, cols, int64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = buf
	}
	resp, body := postStream(t, env.ts.URL+"/v1/estimate?eps=0.001", encodeTestStream(t, bufs, 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr StreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Slices) != steps {
		t.Fatalf("got %d slices, want %d", len(sr.Slices), steps)
	}
	for i, se := range sr.Slices {
		if se.Step != i {
			t.Errorf("slice %d: step %d", i, se.Step)
		}
		jresp, jbody := postJSON(t, env.ts.URL+"/v1/estimate", mustJSON(t, EstimateRequest{
			Rows: rows, Cols: cols, Data: bufs[i].Data, Eps: 0.001,
		}))
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("json path status %d: %s", jresp.StatusCode, jbody)
		}
		var want EstimateResponse
		if err := json.Unmarshal(jbody, &want); err != nil {
			t.Fatal(err)
		}
		if se.CR != want.CR || se.Lo != want.Lo || se.Hi != want.Hi {
			t.Errorf("slice %d: stream estimate %+v != json estimate %+v", i, se, want)
		}
	}
}

// TestStreamEstimateRequiresEps: a missing or unusable ?eps= is rejected
// up front as invalid_buffer naming the bound, before any slice is read.
// "NaN" parses as a float, so it needs its own rejection.
func TestStreamEstimateRequiresEps(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	buf, err := grid.FromSlice(16, 16, testBuffer(16, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	stream := encodeTestStream(t, []*grid.Buffer{buf}, 4)
	for query, msg := range map[string]string{
		"":         "crest: invalid buffer: streaming ingest requires ?eps=",
		"?eps=NaN": `crest: invalid buffer: eps "NaN"`,
		"?eps=-1":  `crest: invalid buffer: eps "-1"`,
		"?eps=Inf": `crest: invalid buffer: eps "Inf"`,
	} {
		resp, body := postStream(t, env.ts.URL+"/v1/estimate"+query, stream)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d: %s", query, resp.StatusCode, body)
		}
		if we := wireErrorOf(t, body); we.Kind != "invalid_buffer" || we.Message != msg {
			t.Errorf("%q: got %q %q, want invalid_buffer %q", query, we.Kind, we.Message, msg)
		}
	}
}

// TestStreamLatencySeries: a CRBS stream posted to /v1/estimate records
// on http_request_seconds_stream, not on the JSON estimate series its
// multi-slice latency would otherwise inflate.
func TestStreamLatencySeries(t *testing.T) {
	env, reg := newObsServer(t, Config{})
	buf, err := grid.FromSlice(24, 24, testBuffer(24, 24, 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postStream(t, env.ts.URL+"/v1/estimate?eps=0.001", encodeTestStream(t, []*grid.Buffer{buf, buf}, 8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	waitFor(t, func() bool { return reg.Snapshot().Histograms["http_request_seconds_stream"].Count == 1 })
	if n := reg.Snapshot().Histograms["http_request_seconds_estimate"].Count; n != 0 {
		t.Fatalf("stream recorded %d JSON estimate latencies, want 0", n)
	}
}

// TestStreamEstimateCorruptBody checks a truncated stream fails closed:
// typed 400 stream_corrupt, no partial slice list.
func TestStreamEstimateCorruptBody(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	buf, err := grid.FromSlice(24, 24, testBuffer(24, 24, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeTestStream(t, []*grid.Buffer{buf, buf}, 5)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"truncated payload", raw[:len(raw)-9]},
		{"garbage header", []byte("not a stream at all")},
	} {
		resp, body := postStream(t, env.ts.URL+"/v1/estimate?eps=0.001", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		var we map[string]WireError
		if err := json.Unmarshal(body, &we); err != nil {
			t.Fatalf("%s: non-JSON error body %s", tc.name, body)
		}
		if we["error"].Kind != "stream_corrupt" {
			t.Errorf("%s: kind %q, want stream_corrupt", tc.name, we["error"].Kind)
		}
	}
}

// onlineTestServer builds a server whose estimator has online
// recalibration enabled with a tiny window, so feedback tests can drive
// a recalibration quickly.
func onlineTestServer(t *testing.T) (*testServer, *core.Estimator) {
	t.Helper()
	est := trainedEstimator(t)
	est.EnableOnlineRecalibration(conformal.OnlineConfig{Window: 32, Band: 0.02, MinObserve: 16, Cooldown: 16})
	cache := featcache.New(est.PredictorConfig())
	srv, err := New(Config{Engine: batch.New(est, cache, 4)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testServer{srv: srv, ts: ts}, est
}

func TestFeedbackEndpoint(t *testing.T) {
	env, est := onlineTestServer(t)
	features := func(seed int64) []float64 {
		buf, err := grid.FromSlice(24, 24, testBuffer(24, 24, seed))
		if err != nil {
			t.Fatal(err)
		}
		f, err := predictors.Compute(buf, 1e-3, est.PredictorConfig())
		if err != nil {
			t.Fatal(err)
		}
		return f.Vector()
	}

	// Grossly wrong truths drive coverage to 0 past the warm-up: the
	// tracker must recalibrate and say so on the wire.
	recalibrated := false
	var last FeedbackResponse
	for i := 0; i < 40; i++ {
		fb := FeedbackRequest{Features: features(int64(i)), ActualCR: 95}
		resp, body := postJSON(t, env.ts.URL+"/v1/feedback", mustJSON(t, fb))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("iter %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if last.Recalibrated {
			recalibrated = true
		}
	}
	if !recalibrated {
		t.Fatal("40 maximally-missed observations never recalibrated")
	}
	if last.Recalibrations == 0 || last.Windowed == 0 {
		t.Fatalf("implausible final feedback %+v", last)
	}
	if math.IsNaN(last.Coverage) {
		t.Fatal("coverage NaN after observations")
	}

	// The /statsz payload now carries the conformal block.
	resp, body := postJSON(t, env.ts.URL+"/statsz", nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("POST /statsz should 405, got %d", resp.StatusCode)
	}
	resp, err := http.Get(env.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sp StatsPayload
	if err := json.Unmarshal(body, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Conformal == nil {
		t.Fatal("/statsz missing conformal block with recalibration enabled")
	}
	if sp.Conformal.Recalibrations != last.Recalibrations {
		t.Errorf("statsz recalibrations %d != feedback %d", sp.Conformal.Recalibrations, last.Recalibrations)
	}
}

func TestFeedbackDisabledConflicts(t *testing.T) {
	env := newTestServer(t, Config{}, false)
	fb := FeedbackRequest{Features: make([]float64, 5), ActualCR: 10}
	resp, body := postJSON(t, env.ts.URL+"/v1/feedback", mustJSON(t, fb))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d: %s (want 409 when recalibration disabled)", resp.StatusCode, body)
	}
	var we map[string]WireError
	if err := json.Unmarshal(body, &we); err != nil {
		t.Fatal(err)
	}
	if we["error"].Kind != "recalibration_disabled" {
		t.Errorf("kind %q", we["error"].Kind)
	}
}

func TestFeedbackRejectsBadCR(t *testing.T) {
	env, _ := onlineTestServer(t)
	for _, cr := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		fb := map[string]any{"features": make([]float64, 5), "actual_cr": cr}
		raw, err := json.Marshal(fb)
		if err != nil {
			// NaN/Inf cannot be marshalled by encoding/json; send a raw body.
			raw = []byte(`{"features":[0,0,0,0,0],"actual_cr":"bad"}`)
		}
		resp, body := postJSON(t, env.ts.URL+"/v1/feedback", raw)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cr=%v: status %d: %s", cr, resp.StatusCode, body)
		}
	}
}

// TestFeedbackDrainingRejects pins the drain taxonomy on the feedback
// path: once Drain begins, POST /v1/feedback is 503 with a Retry-After
// hint and kind "draining" — the same contract as the estimate paths,
// so a feedback client's retry loop needs no special casing.
func TestFeedbackDrainingRejects(t *testing.T) {
	env, _ := onlineTestServer(t)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := env.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fb := FeedbackRequest{Features: make([]float64, 5), ActualCR: 10}
	resp, body := postJSON(t, env.ts.URL+"/v1/feedback", mustJSON(t, fb))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s (want 503 during drain)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drained feedback rejection missing Retry-After")
	}
	var we map[string]WireError
	if err := json.Unmarshal(body, &we); err != nil {
		t.Fatal(err)
	}
	if we["error"].Kind != "draining" {
		t.Errorf("kind %q, want draining", we["error"].Kind)
	}
}

// TestFeedbackDrainRace drains while stream-ingest and feedback traffic
// is in flight from concurrent clients. Every response must be either a
// clean 200 (admitted before the drain) or a 503 with Retry-After (shed
// by it) — never a hung request, a torn response, or a drain that
// returns while work is still running. Run under -race this also proves
// the tracker and drain bookkeeping tolerate the interleaving.
func TestFeedbackDrainRace(t *testing.T) {
	env, est := onlineTestServer(t)

	buf, err := grid.FromSlice(24, 24, testBuffer(24, 24, 5))
	if err != nil {
		t.Fatal(err)
	}
	streamBody := encodeTestStream(t, []*grid.Buffer{buf}, 7)
	f, err := predictors.Compute(buf, 1e-3, est.PredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	fbBody := mustJSON(t, FeedbackRequest{Features: f.Vector(), ActualCR: 12})

	const workers = 6
	type outcome struct {
		status     int
		retryAfter bool
		body       []byte
	}
	results := make(chan outcome, workers*64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	post := func(path, ctype string, body []byte) {
		req, err := http.NewRequest(http.MethodPost, env.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("transport error during drain race: %v", err)
			return
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After") != "", out}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					post("/v1/estimate?eps=0.001", StreamContentType, streamBody)
				} else {
					post("/v1/feedback", "application/json", fbBody)
				}
			}
		}(w)
	}

	// Let traffic establish, then drain mid-flight.
	time.Sleep(20 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := env.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain with inflight traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	close(results)

	var ok200, shed int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			shed++
			if !r.retryAfter {
				t.Errorf("503 without Retry-After: %s", r.body)
			}
		default:
			t.Errorf("unexpected status %d during drain race: %s", r.status, r.body)
		}
	}
	if ok200 == 0 {
		t.Error("no request succeeded before the drain")
	}
	if shed == 0 {
		t.Error("no request was shed by the drain")
	}

	// The server is now fully drained: stats must balance and a fresh
	// feedback post is still a clean 503, not a hang.
	st := env.srv.Stats()
	if st.Inflight != 0 {
		t.Errorf("drained server reports %d inflight", st.Inflight)
	}
	resp, _ := postJSON(t, env.ts.URL+"/v1/feedback", fbBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain feedback status %d, want 503", resp.StatusCode)
	}
}

// TestStatszBeforeAnyFeedback: with recalibration enabled but zero
// observations the tracker's coverage is NaN, which encoding/json cannot
// represent — a raw pass-through aborts the whole /statsz payload after
// the 200 header (empty body). The conformal block must report coverage
// as null instead.
func TestStatszBeforeAnyFeedback(t *testing.T) {
	env, _ := onlineTestServer(t)
	resp, err := http.Get(env.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("/statsz returned an empty body with recalibration enabled and no observations")
	}
	var sp StatsPayload
	if err := json.Unmarshal(body, &sp); err != nil {
		t.Fatalf("/statsz not JSON: %v: %s", err, body)
	}
	if sp.Conformal == nil {
		t.Fatal("missing conformal block")
	}
	if sp.Conformal.Coverage != nil {
		t.Errorf("coverage %v before any observation, want null", *sp.Conformal.Coverage)
	}
	if sp.Conformal.Observed != 0 {
		t.Errorf("observed %d, want 0", sp.Conformal.Observed)
	}
}
