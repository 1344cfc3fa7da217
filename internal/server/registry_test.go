package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/registry"
)

// regTrueCR is the ground-truth relation registry-mode tests score
// feedback against (matches trainedEstimator's training relation).
func regTrueCR(f []float64) float64 { return 1 + 8*math.Exp(0.4*f[0]-0.2*f[3]) }

// regressedEstimator trains on shuffled labels so its predictions are
// uninformative — the deliberately bad canary candidate.
func regressedEstimator(t testing.TB) *core.Estimator {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	samples := make([]core.Sample, 60)
	for i := range samples {
		f := make([]float64, 5)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		samples[i] = core.Sample{Features: f, CR: regTrueCR(f)}
	}
	rng.Shuffle(len(samples), func(i, j int) {
		samples[i].CR, samples[j].CR = samples[j].CR, samples[i].CR
	})
	est, err := core.Train(samples, core.Config{Predictors: predictors.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// newRegistryServer wires a registry (with a trained default lineage) and
// a registry-mode Server into an httptest listener.
func newRegistryServer(t testing.TB, mutReg func(*registry.Config), mutSrv func(*Config)) (*registry.Registry, *testServer) {
	t.Helper()
	rcfg := registry.Config{
		Root:           t.TempDir(),
		Obs:            obs.NewRegistry(),
		CanaryFraction: 0.25,
	}
	if mutReg != nil {
		mutReg(&rcfg)
	}
	reg, err := registry.Open(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Publish("default", trainedEstimator(t)); err != nil {
		t.Fatal(err)
	}
	scfg := Config{Registry: reg, Obs: rcfg.Obs}
	if mutSrv != nil {
		mutSrv(&scfg)
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return reg, &testServer{srv: srv, ts: ts}
}

// postHdr posts a JSON body with optional tenant/lineage headers and
// returns the response (caller closes the body).
func postHdr(t testing.TB, url string, body []byte, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func feedbackBody(t testing.TB, f []float64, actual float64) []byte {
	t.Helper()
	b, err := json.Marshal(FeedbackRequest{Features: f, ActualCR: actual})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryModeServesAndStampsVersion: requests route to the default
// lineage's active model and responses carry the serving version header.
func TestRegistryModeServesAndStampsVersion(t *testing.T) {
	_, ts := newRegistryServer(t, nil, nil)
	resp := postHdr(t, ts.ts.URL+"/v1/estimate", estimateBody(t, 16, 16, 1), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if v := resp.Header.Get(ModelVersionHeader); v != "1" {
		t.Fatalf("%s = %q, want 1", ModelVersionHeader, v)
	}
	// Unknown lineage is the client's error: 404, not 500.
	resp2 := postHdr(t, ts.ts.URL+"/v1/estimate", estimateBody(t, 16, 16, 1),
		map[string]string{LineageHeader: "nope"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown lineage status %d, want 404", resp2.StatusCode)
	}
	var we map[string]WireError
	json.NewDecoder(resp2.Body).Decode(&we)
	if we["error"].Kind != "unknown_lineage" {
		t.Fatalf("kind %q, want unknown_lineage", we["error"].Kind)
	}
}

// TestQuota429DistinctFrom503 pins the wire contract: quota exhaustion is
// 429 quota_exceeded with a per-tenant Retry-After — never the 503 the
// overload and drain paths use — and does not consume served/shed
// counters of the overload path.
func TestQuota429DistinctFrom503(t *testing.T) {
	_, ts := newRegistryServer(t, func(c *registry.Config) {
		c.Quota = registry.QuotaConfig{
			Tenants: map[string]registry.TenantQuota{"alice": {Rate: 0.5, Burst: 2}},
		}
	}, nil)
	hdr := map[string]string{TenantHeader: "alice"}
	for i := 0; i < 2; i++ {
		resp := postHdr(t, ts.ts.URL+"/v1/estimate", estimateBody(t, 16, 16, 1), hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := postHdr(t, ts.ts.URL+"/v1/estimate", estimateBody(t, 16, 16, 1), hdr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	var we map[string]WireError
	json.NewDecoder(resp.Body).Decode(&we)
	if we["error"].Kind != "quota_exceeded" {
		t.Fatalf("kind %q, want quota_exceeded", we["error"].Kind)
	}
	st := ts.srv.Stats()
	if st.QuotaRejected != 1 {
		t.Fatalf("QuotaRejected = %d, want 1", st.QuotaRejected)
	}
	if st.Shed != 0 || st.DrainRejected != 0 {
		t.Fatalf("quota rejection leaked into overload counters: %+v", st)
	}
}

// TestTenantIsolationUnderQuotaStorm is the acceptance scenario: a tenant
// driving 10× its quota degrades only its own traffic (429s) while the
// other tenant's latency stays within 1.5× its baseline.
func TestTenantIsolationUnderQuotaStorm(t *testing.T) {
	_, ts := newRegistryServer(t, func(c *registry.Config) {
		c.Quota = registry.QuotaConfig{
			Tenants: map[string]registry.TenantQuota{"noisy": {Rate: 5, Burst: 5}},
		}
	}, nil)
	body := estimateBody(t, 16, 16, 1)

	// Baseline p99 for the quiet tenant, unloaded.
	quiet := map[string]string{TenantHeader: "quiet"}
	baseline := measureP99(t, ts.ts.URL, body, quiet, 30)

	// Noisy tenant fires 10× its quota budget concurrently with the quiet
	// tenant's run.
	var wg sync.WaitGroup
	noisy429 := 0
	var noisyMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		hdr := map[string]string{TenantHeader: "noisy"}
		for i := 0; i < 50; i++ {
			resp := postHdr(t, ts.ts.URL+"/v1/estimate", body, hdr)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				noisyMu.Lock()
				noisy429++
				noisyMu.Unlock()
			} else if resp.StatusCode != http.StatusOK {
				t.Errorf("noisy tenant got %d, want 200 or 429", resp.StatusCode)
			}
		}
	}()
	stormP99 := measureP99(t, ts.ts.URL, body, quiet, 30)
	wg.Wait()

	if noisy429 == 0 {
		t.Fatal("noisy tenant at 10x quota saw no 429s")
	}
	// The quiet tenant never saw a 429 (measureP99 fails non-200) and its
	// p99 stayed within 1.5x baseline (floored to absorb timer noise on
	// sub-millisecond baselines).
	limit := time.Duration(1.5 * float64(baseline))
	if floor := 50 * time.Millisecond; limit < floor {
		limit = floor
	}
	if stormP99 > limit {
		t.Fatalf("quiet tenant p99 %v under storm, want <= %v (baseline %v)", stormP99, limit, baseline)
	}
}

func measureP99(t testing.TB, url string, body []byte, hdr map[string]string, n int) time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		resp := postHdr(t, url+"/v1/estimate", body, hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %q got %d", hdr[TenantHeader], resp.StatusCode)
		}
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[(len(durs)*99)/100]
}

// TestCanaryRollbackOverHTTP drives a deliberately-regressed candidate
// through the HTTP feedback path until auto-rollback, then proves zero
// subsequent requests are served by it.
func TestCanaryRollbackOverHTTP(t *testing.T) {
	reg, ts := newRegistryServer(t, nil, nil)
	bad, err := reg.Publish("default", regressedEstimator(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	decided := ""
	for i := 0; i < 300 && decided == ""; i++ {
		f := make([]float64, 5)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		resp := postHdr(t, ts.ts.URL+"/v1/feedback", feedbackBody(t, f, regTrueCR(f)), nil)
		var fr FeedbackResponse
		json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback status %d", resp.StatusCode)
		}
		decided = fr.Decision
	}
	if decided != "rollback" {
		t.Fatalf("decision %q, want rollback", decided)
	}
	badSeq := fmt.Sprint(bad)
	for i := 0; i < 100; i++ {
		resp := postHdr(t, ts.ts.URL+"/v1/estimate", estimateBody(t, 16, 16, 1), nil)
		resp.Body.Close()
		if resp.Header.Get(ModelVersionHeader) == badSeq || resp.Header.Get(CanaryHeader) != "" {
			t.Fatalf("request %d served by rolled-back v%s", i, badSeq)
		}
	}
}

// TestRegistryFeedbackMovesConformalGauges: feedback routed to a lineage
// whose model recalibrates online reports the tracker on the
// conformal_coverage_bp and conformal_radius_micro gauges, exactly as
// single-model feedback does.
func TestRegistryFeedbackMovesConformalGauges(t *testing.T) {
	reg, ts := newRegistryServer(t, nil, nil)
	eng, err := reg.ActiveEngine("")
	if err != nil {
		t.Fatal(err)
	}
	est := eng.Estimator()
	est.EnableOnlineRecalibration(conformal.OnlineConfig{Window: 32, Band: 0.02, MinObserve: 16, Cooldown: 16})
	f := []float64{0.3, -0.1, 0.2, 0.5, -0.4}
	e, err := est.Estimate(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// The point estimate lies inside its own interval: a hit.
		resp := postHdr(t, ts.ts.URL+"/v1/feedback", feedbackBody(t, f, e.CR), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback %d: status %d", i, resp.StatusCode)
		}
	}
	st, _ := est.OnlineStats()
	gauges := ts.srv.cfg.Obs.Snapshot().Gauges
	if got, want := gauges["conformal_coverage_bp"], int64(st.Coverage*1e4); got != want || want != 1e4 {
		t.Errorf("conformal_coverage_bp = %d, want %d (coverage %g)", got, want, st.Coverage)
	}
	if got, want := gauges["conformal_radius_micro"], int64(st.Radius*1e6); got != want || want == 0 {
		t.Errorf("conformal_radius_micro = %d, want %d", got, want)
	}
}

// TestModelsAdminEndpoints exercises list, get, promote and rollback over
// the wire.
func TestModelsAdminEndpoints(t *testing.T) {
	reg, ts := newRegistryServer(t, nil, nil)
	seq, err := reg.Publish("default", trainedEstimator(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list map[string][]registry.LineageInfo
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list["lineages"]) != 1 || list["lineages"][0].Name != "default" {
		t.Fatalf("list = %+v", list)
	}
	if c := list["lineages"][0].Canary; c == nil || c.Candidate != seq {
		t.Fatalf("canary candidate missing from list: %+v", list["lineages"][0])
	}

	body, _ := json.Marshal(PromoteRequest{Seq: seq})
	presp := postHdr(t, ts.ts.URL+"/v1/models/default/promote", body, nil)
	var lr LifecycleResponse
	json.NewDecoder(presp.Body).Decode(&lr)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || lr.Lineage.Active != seq {
		t.Fatalf("promote: status %d, %+v", presp.StatusCode, lr)
	}

	rresp := postHdr(t, ts.ts.URL+"/v1/models/default/rollback", nil, nil)
	json.NewDecoder(rresp.Body).Decode(&lr)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || lr.Lineage.Active != 1 {
		t.Fatalf("rollback: status %d, %+v", rresp.StatusCode, lr)
	}

	gresp, err := http.Get(ts.ts.URL + "/v1/models/missing")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing lineage status %d, want 404", gresp.StatusCode)
	}
}

// TestStatszRegistryBlock: /statsz carries the per-lineage registry
// section in registry mode.
func TestStatszRegistryBlock(t *testing.T) {
	_, ts := newRegistryServer(t, nil, nil)
	resp, err := http.Get(ts.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Registry) != 1 || payload.Registry[0].Name != "default" {
		t.Fatalf("statsz registry block = %+v", payload.Registry)
	}
}
