package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/obs"
)

// TestCapacityWindowStatsz: with CapacityWindow set, the sampler ticks,
// the capacity_* series move, /statsz grows a capacity block, and Drain
// stops the sampler. At a 1µs window a tick is always ready when Drain
// closes the stop channel, so Drain must wait for the sampler to exit.
func TestCapacityWindowStatsz(t *testing.T) {
	for _, window := range []time.Duration{2 * time.Millisecond, time.Microsecond} {
		t.Run(window.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			env := newTestServer(t, Config{
				CapacityWindow: window,
				Obs:            reg,
			}, false)
			body := estimateBody(t, 16, 16, 1)
			for i := 0; i < 20; i++ {
				resp, out := postJSON(t, env.ts.URL+"/v1/estimate", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("estimate %d: HTTP %d: %s", i, resp.StatusCode, out)
				}
			}

			// The sampler runs on wall-clock ticks: poll until it has taken a few.
			deadline := time.Now().Add(5 * time.Second)
			for reg.Snapshot().Counters["capacity_samples_total"] < 3 {
				if time.Now().After(deadline) {
					t.Fatal("capacity sampler never ticked")
				}
				time.Sleep(2 * time.Millisecond)
			}

			r, err := http.Get(env.ts.URL + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(r.Body)
			r.Body.Close()
			var payload struct {
				Capacity *struct {
					Ticks   uint64 `json:"ticks"`
					Samples uint64 `json:"samples"`
				} `json:"capacity"`
			}
			if err := json.Unmarshal(raw, &payload); err != nil {
				t.Fatalf("statsz not JSON: %v: %s", err, raw)
			}
			if payload.Capacity == nil {
				t.Fatalf("statsz missing capacity block: %s", raw)
			}
			if payload.Capacity.Ticks == 0 {
				t.Fatalf("capacity block has zero ticks: %s", raw)
			}

			// Drain stops the sampler: the tick counter must go quiet.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := env.srv.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			before := reg.Snapshot().Counters["capacity_samples_total"]
			time.Sleep(20 * time.Millisecond)
			if after := reg.Snapshot().Counters["capacity_samples_total"]; after != before {
				t.Fatalf("sampler still ticking after Drain: %d -> %d", before, after)
			}
		})
	}
}

// TestCapacityWindowDisabled: without the flag there is no capacity
// block and no capacity_* series.
func TestCapacityWindowDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestServer(t, Config{Obs: reg}, false)
	r, err := http.Get(env.ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["capacity"]; ok {
		t.Fatalf("capacity block present without CapacityWindow: %s", raw)
	}
	if _, ok := reg.Snapshot().Counters["capacity_samples_total"]; ok {
		t.Fatal("capacity_samples_total registered without the sampler")
	}
}
