package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/cluster"
	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/registry"
)

// TestWireTranscripts pins the bytes every serving mode puts on the wire
// — status, the client-visible headers and the body — for a fixed script
// of requests against a single node (recalibration on and off), a
// registry (same script plus lineage and quota cases) and a two-node
// fleet (local, forwarded, content-routed, split batch, a forwarded body
// the JSON fast path declines, degraded). The transcript is compared byte
// for byte against testdata; regenerate it only for an intended wire
// change:
//
//	CREST_UPDATE_GOLDEN=1 go test ./internal/server -run TestWireTranscripts
//
// Listener ports never reach the file: fleet requests are chosen by
// ownership at run time (varying a field name or one data element, never
// eps, so bodies do not move), and peer URLs are rewritten to PEER0/PEER1.
func TestWireTranscripts(t *testing.T) {
	var out bytes.Buffer
	for _, recal := range []bool{false, true} {
		name := fmt.Sprintf("single recal=%v", recal)
		est := trainedEstimator(t)
		if recal {
			est.EnableOnlineRecalibration(conformal.OnlineConfig{Window: 32, Band: 0.02, MinObserve: 16, Cooldown: 16})
		}
		srv, err := New(Config{
			Engine: batch.New(est, featcache.New(est.PredictorConfig()), 4),
			Obs:    obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		tr := &transcript{t: t, out: &out, base: ts.URL, section: name}
		tr.commonCases()
		ts.Close()
	}

	for _, recal := range []bool{false, true} {
		name := fmt.Sprintf("registry recal=%v", recal)
		reg, env := newRegistryServer(t, func(c *registry.Config) {
			c.Quota = registry.QuotaConfig{
				Tenants: map[string]registry.TenantQuota{"tiny": {Rate: 0.001, Burst: 1}},
			}
		}, nil)
		if recal {
			// The published estimator is the lineage's active model.
			eng, err := reg.ActiveEngine("")
			if err != nil {
				t.Fatal(err)
			}
			eng.Estimator().EnableOnlineRecalibration(conformal.OnlineConfig{Window: 32, Band: 0.02, MinObserve: 16, Cooldown: 16})
		}
		tr := &transcript{t: t, out: &out, base: env.ts.URL, section: name}
		tr.commonCases()
		tr.post("unknown lineage", "/v1/estimate", "application/json",
			estimateBody(t, 24, 24, 1), map[string]string{LineageHeader: "nope"})
		tiny := map[string]string{TenantHeader: "tiny"}
		tr.post("quota first", "/v1/estimate", "application/json", estimateBody(t, 24, 24, 1), tiny)
		tr.post("quota exhausted", "/v1/estimate", "application/json", estimateBody(t, 24, 24, 1), tiny)
	}

	fleetTranscript(t, &out)

	path := filepath.Join("testdata", "wire_transcripts.golden")
	if os.Getenv("CREST_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, e string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if g != e {
				t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, e)
			}
		}
	}
}

// fleetTranscript drives a two-node fleet with one owner per key through
// node 0, then stops node 1 and repeats the remote cases degraded.
func fleetTranscript(t *testing.T, out *bytes.Buffer) {
	fleet := startChaosFleet(t, 2, func(_ int, ccfg *cluster.Config, _ *Config) {
		ccfg.Replicas = 1
	})
	entry := fleet.nodes[0]
	tr := &transcript{t: t, out: out, base: entry.addr, section: "fleet",
		peers: []string{fleet.nodes[0].addr, fleet.nodes[1].addr}}

	// Named keys route by identity: pick one field per owner.
	var localField, remoteField string
	for i := 0; localField == "" || remoteField == ""; i++ {
		field := fmt.Sprintf("f%d", i)
		if entry.cl.OwnsLocally("chaos/" + field + "/0") {
			if localField == "" {
				localField = field
			}
		} else if remoteField == "" {
			remoteField = field
		}
	}
	// Anonymous keys route by a content fingerprint: perturb one element
	// of the 4×4 buffer until its key is remote.
	tiny := make([]float64, 16)
	for i := range tiny {
		tiny[i] = float64(i)
	}
	for i := 0; entry.cl.OwnsLocally(routingKey(&EstimateRequest{Rows: 4, Cols: 4, Data: tiny, Eps: 1e-3})); i++ {
		tiny[15] = float64(100 + i)
	}
	named := func(field string) EstimateRequest {
		return EstimateRequest{Dataset: "chaos", Field: field, Rows: 24, Cols: 24, Data: testBuffer(24, 24, 7), Eps: 1e-3}
	}
	split := mustJSON(t, BatchWireRequest{Requests: []EstimateRequest{
		named(localField), named(remoteField),
		{Rows: 4, Cols: 4, Data: tiny, Eps: 1e-3},
	}})

	tr.post("local", "/v1/estimate", "application/json", mustJSON(t, named(localField)), nil)
	tr.post("forwarded", "/v1/estimate", "application/json", mustJSON(t, named(remoteField)), nil)
	tr.post("content-routed 4x4", "/v1/estimate", "application/json",
		mustJSON(t, EstimateRequest{Rows: 4, Cols: 4, Data: tiny, Eps: 1e-3}), nil)
	tr.post("split batch", "/v1/batch", "application/json", split, nil)
	// A body the JSON fast path declines is forwarded byte for byte too.
	tr.post("forwarded case-folded key", "/v1/estimate", "application/json",
		bytes.Replace(mustJSON(t, named(remoteField)), []byte(`"rows"`), []byte(`"Rows"`), 1), nil)

	fleet.nodes[1].stop()
	tr.post("degraded estimate", "/v1/estimate", "application/json", mustJSON(t, named(remoteField)), nil)
	tr.post("degraded batch", "/v1/batch", "application/json", split, nil)
}

// transcript appends one normalized record per request to out.
type transcript struct {
	t       *testing.T
	out     *bytes.Buffer
	base    string
	section string
	peers   []string // rewritten to PEER<i> in headers and bodies
}

// transcriptHeaders are the response headers a client can act on.
var transcriptHeaders = []string{
	"Content-Type", "Retry-After", ModelVersionHeader, CanaryHeader,
	cluster.ServedByHeader, "X-Request-Id",
}

func (tr *transcript) post(name, path, contentType string, body []byte, hdr map[string]string) {
	tr.t.Helper()
	req, err := http.NewRequest(http.MethodPost, tr.base+path, bytes.NewReader(body))
	if err != nil {
		tr.t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Request-ID", strings.ReplaceAll(tr.section+"/"+name, " ", "-"))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tr.t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		tr.t.Fatal(err)
	}
	var rec strings.Builder
	fmt.Fprintf(&rec, "=== %s: %s\nPOST %s\n%d\n", tr.section, name, path, resp.StatusCode)
	for _, h := range transcriptHeaders {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(&rec, "%s: %s\n", h, v)
		}
	}
	fmt.Fprintf(&rec, "%s\n", got)
	s := rec.String()
	for i, p := range tr.peers {
		s = strings.ReplaceAll(s, p, fmt.Sprintf("PEER%d", i))
	}
	tr.out.WriteString(s)
}

// commonCases is the script every non-fleet mode runs.
func (tr *transcript) commonCases() {
	t := tr.t
	const js = "application/json"
	tiny := make([]float64, 16)
	for i := range tiny {
		tiny[i] = float64(i)
	}
	valid := EstimateRequest{Rows: 24, Cols: 24, Data: testBuffer(24, 24, 1), Eps: 1e-3}
	validJSON := mustJSON(t, valid)

	tr.post("estimate ok", "/v1/estimate", js, validJSON, nil)
	tr.post("4x4", "/v1/estimate", js, mustJSON(t, EstimateRequest{Rows: 4, Cols: 4, Data: tiny, Eps: 1e-3}), nil)
	tr.post("eps 0", "/v1/estimate", js, mustJSON(t, EstimateRequest{Rows: 24, Cols: 24, Data: valid.Data}), nil)
	tr.post("unknown field", "/v1/estimate", js, []byte(`{"rows":24,"cols":24,"epz":0.001}`), nil)
	tr.post("trailing data", "/v1/estimate", js, append(append([]byte{}, validJSON...), `{}`...), nil)
	tr.post("empty body", "/v1/estimate", js, nil, nil)
	tr.post("mixed batch", "/v1/batch", js, mustJSON(t, BatchWireRequest{Requests: []EstimateRequest{
		valid,
		{Rows: 4, Cols: 4, Data: tiny, Eps: 1e-3},
		{Rows: 24, Cols: 24, Data: valid.Data},
		{Rows: 24, Cols: 24, Data: testBuffer(24, 24, 2), Eps: 1e-2},
	}}), nil)
	tr.post("empty batch", "/v1/batch", js, []byte(`{"requests":[]}`), nil)
	tr.post("oversized batch", "/v1/batch", js,
		[]byte(`{"requests":[`+strings.Repeat(`{},`, 1024)+`{}]}`), nil)

	bufs := make([]*grid.Buffer, 2)
	for i := range bufs {
		buf, err := grid.FromSlice(24, 24, testBuffer(24, 24, int64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = buf
	}
	tr.post("crbs stream", "/v1/estimate?eps=0.001", StreamContentType, encodeTestStream(t, bufs, 7), nil)

	buf, err := grid.FromSlice(24, 24, valid.Data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := predictors.Compute(buf, 1e-3, predictors.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tr.post(fmt.Sprintf("feedback %d", i), "/v1/feedback", js,
			mustJSON(t, FeedbackRequest{Features: f.Vector(), ActualCR: float64(5 + 40*i)}), nil)
	}
	tr.post("feedback short features", "/v1/feedback", js,
		mustJSON(t, FeedbackRequest{Features: []float64{1, 2}, ActualCR: 5}), nil)

	// Bodies the JSON fast path declines, which the reference decoder
	// answers, and a whitespace-padded canonical body it accepts.
	tr.post("case-folded key", "/v1/estimate", js, bytes.Replace(validJSON, []byte(`"rows"`), []byte(`"Rows"`), 1), nil)
	tr.post("duplicate data", "/v1/estimate", js, append([]byte(`{"data":[0],`), validJSON[1:]...), nil)
	tr.post("data 1e400", "/v1/estimate", js, []byte(`{"rows":4,"cols":4,"data":[1e400],"eps":0.001}`), nil)
	tr.post("escaped field", "/v1/estimate", js, append([]byte(`{"field":"café \"x\"",`), validJSON[1:]...), nil)
	tr.post("data null", "/v1/estimate", js, []byte(`{"rows":24,"cols":24,"data":null,"eps":0.001}`), nil)
	padded := bytes.ReplaceAll(validJSON, []byte(`,"`), []byte(",\n\t\""))
	padded = bytes.ReplaceAll(padded, []byte(`":`), []byte(`" : `))
	tr.post("padded estimate", "/v1/estimate", js, append(append([]byte(" \r\n"), padded...), " \n"...), nil)
}
