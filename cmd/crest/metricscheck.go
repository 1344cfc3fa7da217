package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/crestlab/crest/internal/obs"
)

// metricsDoc mirrors the GET /metrics payload shape loosely enough to
// survive additive changes: unknown fields are ignored, and the checks
// below only assert the series this build is known to emit.
type metricsDoc struct {
	Counters   map[string]uint64                `json:"counters"`
	Gauges     map[string]int64                 `json:"gauges"`
	Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
	Derived    struct {
		FeatcacheHitRate float64 `json:"featcache_hit_rate"`
	} `json:"derived"`
}

// requiredHistograms must exist after the server has served at least one
// JSON estimate and one CRBS stream from a snapshot-loaded model; those
// marked nonzero must also have recorded at least one observation.
var requiredHistograms = []struct {
	name    string
	nonzero bool
}{
	{"http_request_seconds_estimate", true},
	{"http_request_seconds_stream", true},
	{"http_request_seconds_batch", false},
	{"predictor_sd_seconds", true},
	{"predictor_sc_seconds", true},
	{"predictor_coding_gain_seconds", true},
	{"predictor_cov_svd_seconds", true},
	{"predictor_distortion_seconds", true},
	{"batch_feature_seconds", true},
	{"batch_estimate_seconds", true},
	{"batch_request_seconds", true},
	{"snapshot_load_seconds", true},
}

var requiredGauges = []string{"server_queue_depth", "server_inflight"}

// registryGauges/Counters are additionally required when -registry is
// set: the series a registry-mode server must expose after serving at
// least one routed estimate. Lifecycle counters (promotions, rollbacks)
// must exist but need not have fired.
var registryGauges = []string{"registry_lineages"}

var registryCounters = []struct {
	name    string
	nonzero bool
}{
	{"registry_requests_total", true},
	{"registry_promotions_total", false},
	{"registry_rollbacks_total", false},
	{"tenant_requests_total", true},
	{"tenant_quota_rejections_total", false},
	{"snapshot_pruned_total", false},
	{"snapshot_prune_passes_total", false},
}

// capacityGauges/Counters are additionally required when -capacity is
// set: the series the online capacity sampler maintains when the server
// runs with -capacity-window. The tick counter must have fired (the
// sampler ticks on wall time, traffic or not); the gauges only need to
// exist, since a briefly-idle server can legitimately sit at zero.
var capacityGauges = []string{"capacity_levels", "capacity_last_inflight"}

var capacityCounters = []struct {
	name    string
	nonzero bool
}{
	{"capacity_samples_total", true},
}

// requiredCounters must exist on every server; those marked nonzero must
// have fired. The dataset-hit counter is among them because the gate
// drives a two-probe ε search: its second probe sends the same buffer at
// another bound, which must reuse the first probe's dataset features.
var requiredCounters = []struct {
	name    string
	nonzero bool
}{
	{"server_accepted_total", true},
	{"server_served_total", true},
	{"featcache_dataset_misses_total", true},
	{"featcache_eb_misses_total", true},
	{"featcache_dataset_hits_total", true},
	{"featcache_eb_hits_total", false},
	{"featcache_dedup_waits_total", false},
	{"featcache_failures_total", false},
	{"featcache_evictions_total", false},
}

// cmdMetricsCheck fetches GET /metrics from a running server and fails
// unless every expected series is present (and populated where traffic
// must have populated it) — the CI gate that keeps the observability
// surface from silently regressing.
func cmdMetricsCheck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("metricscheck", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "server base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "fetch deadline")
	registryMode := fs.Bool("registry", false, "also require the registry/tenant lifecycle series (registry-mode servers)")
	capacityMode := fs.Bool("capacity", false, "also require the capacity_* series (servers running with -capacity-window)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, *url+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("fetch /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %d", resp.StatusCode)
	}
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("/metrics is not valid JSON: %w", err)
	}

	gaugeChecks, counterChecks := requiredGauges, requiredCounters
	if *capacityMode {
		gaugeChecks = append(append([]string{}, gaugeChecks...), capacityGauges...)
		counterChecks = append(append([]struct {
			name    string
			nonzero bool
		}{}, counterChecks...), capacityCounters...)
	}
	if *registryMode {
		gaugeChecks = append(append([]string{}, gaugeChecks...), registryGauges...)
		counterChecks = append(append([]struct {
			name    string
			nonzero bool
		}{}, counterChecks...), registryCounters...)
	}

	var problems []string
	for _, h := range requiredHistograms {
		s, ok := doc.Histograms[h.name]
		switch {
		case !ok:
			problems = append(problems, "missing histogram "+h.name)
		case h.nonzero && s.Count == 0:
			problems = append(problems, "empty histogram "+h.name)
		case s.Count > 0 && (s.P50 < 0 || s.P90 < s.P50 || s.P99 < s.P90):
			problems = append(problems, fmt.Sprintf("non-monotone quantiles on %s: p50=%g p90=%g p99=%g",
				h.name, s.P50, s.P90, s.P99))
		}
	}
	for _, g := range gaugeChecks {
		if _, ok := doc.Gauges[g]; !ok {
			problems = append(problems, "missing gauge "+g)
		}
	}
	for _, c := range counterChecks {
		v, ok := doc.Counters[c.name]
		if !ok {
			problems = append(problems, "missing counter "+c.name)
		} else if c.nonzero && v == 0 {
			problems = append(problems, "zero counter "+c.name)
		}
	}
	if hr := doc.Derived.FeatcacheHitRate; hr < 0 || hr > 1 {
		problems = append(problems, fmt.Sprintf("featcache_hit_rate %g outside [0,1]", hr))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "metricscheck: %s\n", p)
		}
		return fmt.Errorf("%d metric series problem(s)", len(problems))
	}
	fmt.Printf("metricscheck: ok — %d counters, %d gauges, %d histograms; estimate p99 %.6fs; featcache hit rate %.3f\n",
		len(doc.Counters), len(doc.Gauges), len(doc.Histograms),
		doc.Histograms["http_request_seconds_estimate"].P99, doc.Derived.FeatcacheHitRate)
	return nil
}
