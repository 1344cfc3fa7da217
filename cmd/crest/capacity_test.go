package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	crest "github.com/crestlab/crest"
	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/capacity"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/server"
)

// runCapacity runs cmdCapacity with args plus an -out file and returns
// the decoded report.
func runCapacity(t *testing.T, args ...string) capacityReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "cap.json")
	if err := cmdCapacity(context.Background(), append(args, "-out", out)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var r capacityReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("report not JSON: %v: %s", err, raw)
	}
	return r
}

// TestCmdCapacitySynthetic feeds the report's fit step a USL curve with
// known (λ, σ, κ) and ±2% seeded noise over levels 1..64: the fit must
// recover every parameter within 10% and forecast a peak inside the
// swept range.
func TestCmdCapacitySynthetic(t *testing.T) {
	truth := capacity.Fit{Lambda: 1000, Sigma: 0.05, Kappa: 0.001}
	const noise = 0.02
	rng := rand.New(rand.NewSource(7))
	r := capacityReport{SweptMin: 1, SweptMax: 64}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		x := truth.Throughput(float64(n)) * (1 + noise*(2*rng.Float64()-1))
		r.Curve = append(r.Curve, capacity.Point{N: float64(n), X: x})
	}
	if err := finishFit(&r); err != nil {
		t.Fatal(err)
	}
	if !r.PeakInRange {
		t.Fatalf("forecast N* = %g outside swept range [%d, %d]", r.NStar, r.SweptMin, r.SweptMax)
	}
	for _, p := range []struct {
		name      string
		got, want float64
	}{{"lambda", r.Fit.Lambda, truth.Lambda}, {"sigma", r.Fit.Sigma, truth.Sigma}, {"kappa", r.Fit.Kappa, truth.Kappa}} {
		if rel := math.Abs(p.got-p.want) / p.want; rel >= 0.10 {
			t.Errorf("%s relative error %.3f >= 0.10 (got %g, want %g)", p.name, rel, p.got, p.want)
		}
	}
}

// TestCmdCapacityServerSweep sweeps a real serving stack — server.New
// over a batch engine that computes every request's features — and
// requires each level to be served with zero errors.
func TestCmdCapacityServerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a live in-process server")
	}
	rng := rand.New(rand.NewSource(17))
	samples := make([]crest.Sample, 60)
	for i := range samples {
		f := make([]float64, 5)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		samples[i] = crest.Sample{Features: f, CR: 1 + 8*math.Exp(0.4*f[0])}
	}
	est, err := crest.TrainEstimator(samples, crest.EstimatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine:      batch.New(est, nil, 2),
		MaxInflight: 2,
		MaxQueue:    64,
		Obs:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := runCapacity(t, "-url", ts.URL, "-levels", "1,2,4", "-per-level", "12",
		"-rows", "16", "-cols", "16")
	if r.Mode != "url" || len(r.Levels) != 3 {
		t.Fatalf("report = %+v, want 3 levels in url mode", r)
	}
	for _, l := range r.Levels {
		if l.OK != 12 || l.Errors != 0 || l.Shed != 0 {
			t.Errorf("level N=%d: %+v, want 12 served and no errors", l.N, l)
		}
	}
}

// TestCmdCapacityReusesConnections is the regression test for a sweep
// that dialed one TCP connection per request (response bodies closed
// unread, and only 2 idle connections kept per host), so it timed
// handshakes as well as the server. Reused connections keep the count
// near the widest level.
func TestCmdCapacityReusesConnections(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"cr":2.5,"lo":2,"hi":3}`)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	const maxLevel = 8
	r := runCapacity(t, "-url", ts.URL, "-levels", "1,2,4,8", "-per-level", "50",
		"-rows", "16", "-cols", "16")
	for _, l := range r.Levels {
		if l.OK != 50 {
			t.Fatalf("level N=%d: %+v, want 50 served", l.N, l)
		}
	}
	if n := conns.Load(); n > 2*maxLevel {
		t.Fatalf("sweep of 200 requests opened %d connections, want <= %d", n, 2*maxLevel)
	}
}

func TestCmdCapacityNeedsURL(t *testing.T) {
	if err := cmdCapacity(context.Background(), []string{"-levels", "1,2,4"}); err == nil {
		t.Fatal("capacity without -url accepted")
	}
}

func TestParseLevels(t *testing.T) {
	got, err := parseLevels(" 8, 1,2, 4,2 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("levels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("levels = %v, want %v (sorted, deduplicated)", got, want)
		}
	}
	if _, err := parseLevels("0,2,4"); err == nil {
		t.Fatal("level 0 accepted")
	}
	if _, err := parseLevels(""); err == nil {
		t.Fatal("empty levels accepted")
	}
}
