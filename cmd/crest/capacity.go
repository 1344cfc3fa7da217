package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	crest "github.com/crestlab/crest"
	"github.com/crestlab/crest/internal/capacity"
	"github.com/crestlab/crest/internal/server"
)

// capacityReport is the JSON document `crest capacity` emits.
type capacityReport struct {
	Mode     string `json:"mode"`
	SweptMin int    `json:"swept_min"`
	SweptMax int    `json:"swept_max"`
	// Levels carries the raw per-level aggregates of the sweep.
	Levels []capacity.LevelStats `json:"levels,omitempty"`
	// Curve is the (N, X) samples the fit consumed.
	Curve []capacity.Point `json:"curve"`
	Fit   *capacity.Fit    `json:"fit,omitempty"`
	// NStar/PeakX forecast the saturation point when the fitted κ > 0.
	NStar float64 `json:"n_star,omitempty"`
	PeakX float64 `json:"peak_throughput_rps,omitempty"`
	// PeakInRange reports whether the forecast peak lies inside the
	// swept concurrency range.
	PeakInRange bool `json:"peak_in_range"`
}

// cmdCapacity runs a concurrency sweep against a live server (-url),
// fits the Universal Scalability Law X(N) = λN/(1+σ(N−1)+κN(N−1)) to the
// measured throughputs, and reports contention σ, coherence κ and the
// forecast saturation point N*.
func cmdCapacity(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("capacity", flag.ExitOnError)
	levelsCSV := fs.String("levels", "1,2,4,8,16,32", "comma-separated concurrency levels to sweep")
	perLevel := fs.Int("per-level", 100, "requests offered per level")
	levelTimeout := fs.Duration("level-timeout", 15*time.Second, "wall-time bound per level (in-flight requests at expiry are canceled, not errors)")
	url := fs.String("url", "", "base URL of the server to sweep (required)")
	rows := fs.Int("rows", 32, "request buffer rows")
	cols := fs.Int("cols", 32, "request buffer columns")
	out := fs.String("out", "-", "write the JSON report here (-: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("need -url: the base URL of a running `crest serve`")
	}
	levels, err := parseLevels(*levelsCSV)
	if err != nil {
		return err
	}

	// Keep one idle connection per sweeper at the widest level, so the
	// sweep times the server rather than TCP handshakes (the default
	// transport keeps only 2 idle connections per host).
	maxLevel := levels[len(levels)-1]
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = maxLevel, maxLevel
	defer tr.CloseIdleConnections()
	stats, err := capacity.Sweep(ctx, capacity.SweepConfig{
		Levels:       levels,
		PerLevel:     *perLevel,
		LevelTimeout: *levelTimeout,
		Do:           httpEstimateDo(&http.Client{Transport: tr}, *url, *rows, *cols),
	})
	if err != nil {
		return err
	}
	report := capacityReport{
		Mode:     "url",
		SweptMin: levels[0],
		SweptMax: maxLevel,
		Levels:   stats,
		Curve:    capacity.CurveFromLevels(stats),
	}
	if err := finishFit(&report); err != nil {
		fmt.Fprintf(os.Stderr, "capacity: fit skipped: %v\n", err)
	}

	printCapacityHuman(os.Stderr, report)
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// finishFit attaches the USL fit (and its saturation forecast) to a
// report whose Curve and swept range are already populated.
func finishFit(report *capacityReport) error {
	fit, err := capacity.FitUSL(report.Curve)
	if err != nil {
		return err
	}
	report.Fit = &fit
	if nstar, xpeak, ok := fit.Peak(); ok {
		report.NStar, report.PeakX = nstar, xpeak
		report.PeakInRange = nstar >= float64(report.SweptMin) && nstar <= float64(report.SweptMax)
	}
	return nil
}

// parseLevels parses the -levels CSV into ascending unique ints ≥ 1.
func parseLevels(csv string) ([]int, error) {
	var levels []int
	for _, tok := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad -levels entry %q: %v", tok, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("concurrency level %d < 1", n)
		}
		levels = append(levels, n)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("need at least one concurrency level")
	}
	sort.Ints(levels)
	uniq := levels[:1]
	for _, n := range levels[1:] {
		if n != uniq[len(uniq)-1] {
			uniq = append(uniq, n)
		}
	}
	return uniq, nil
}

// httpEstimateDo builds a sweep Do that posts distinct estimate bodies
// (the phase varies per request so the server's feature cache cannot
// collapse the work) and classifies by status code: 200 OK, 503 shed,
// anything else an error.
func httpEstimateDo(client *http.Client, baseURL string, rows, cols int) func(context.Context) error {
	var seq atomic.Int64
	return func(ctx context.Context) error {
		i := seq.Add(1)
		data := make([]float64, rows*cols)
		for j := range data {
			r, c := j/cols, j%cols
			data[j] = math.Sin(float64(r)/5+float64(i)) * math.Cos(float64(c)/7)
		}
		body, err := json.Marshal(server.EstimateRequest{
			Dataset: "capacity", Field: fmt.Sprintf("f%d", i),
			Rows: rows, Cols: cols, Data: data, Eps: 1e-3,
		})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			baseURL+"/v1/estimate", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return crest.ErrCanceled
			}
			return err
		}
		// Read the body to EOF: only then does net/http return the
		// connection to the idle pool for the next request.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusServiceUnavailable:
			return fmt.Errorf("%w: server shed the request", crest.ErrOverloaded)
		default:
			return fmt.Errorf("HTTP %d from %s", resp.StatusCode, baseURL)
		}
	}
}

// printCapacityHuman writes the operator-facing summary: the measured
// curve and what the fit says about where the deployment saturates.
func printCapacityHuman(w *os.File, r capacityReport) {
	fmt.Fprintf(w, "capacity sweep of %d..%d concurrent clients\n", r.SweptMin, r.SweptMax)
	fmt.Fprintf(w, "%-6s %10s %6s %6s %6s %6s %10s %10s\n",
		"N", "X (req/s)", "ok", "shed", "err", "cncl", "p50", "p99")
	for _, l := range r.Levels {
		fmt.Fprintf(w, "%-6d %10.1f %6d %6d %6d %6d %10s %10s\n",
			l.N, l.Throughput, l.OK, l.Shed, l.Errors, l.Canceled,
			l.P50.Round(100*time.Microsecond), l.P99.Round(100*time.Microsecond))
	}
	if r.Fit == nil {
		fmt.Fprintln(w, "no USL fit (need ≥3 distinct levels with served requests)")
		return
	}
	fmt.Fprintf(w, "USL fit: λ=%.1f req/s, σ=%.4f (contention), κ=%.6f (coherence), R²=%.4f\n",
		r.Fit.Lambda, r.Fit.Sigma, r.Fit.Kappa, r.Fit.R2)
	switch {
	case r.Fit.Kappa > 0:
		inRange := "inside"
		if !r.PeakInRange {
			inRange = "OUTSIDE"
		}
		fmt.Fprintf(w, "forecast: peak %.1f req/s at N*=%.1f (%s the swept range); beyond N* throughput is retrograde\n",
			r.PeakX, r.NStar, inRange)
	case r.Fit.Sigma > 0:
		fmt.Fprintf(w, "forecast: no interior peak (κ=0); throughput approaches λ/σ = %.1f req/s asymptotically\n",
			r.Fit.Lambda/r.Fit.Sigma)
	default:
		fmt.Fprintln(w, "forecast: linear scaling over the swept range (σ=κ=0)")
	}
}
