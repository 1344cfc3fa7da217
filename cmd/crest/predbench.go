package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	crest "github.com/crestlab/crest"
	"github.com/crestlab/crest/internal/capacity"
)

// predBenchReport is the schema of BENCH_predictors.json: tail latency and
// steady-state allocation cost of the fused dataset-predictor pass
// (ComputeDataset) on a synthetic buffer. scripts/bench.sh archives it and
// CI runs a small smoke configuration to catch kernel regressions.
type predBenchReport struct {
	Edge    int `json:"edge"`
	K       int `json:"k"`
	Blocks  int `json:"blocks"`
	Iters   int `json:"iters"`
	Workers int `json:"workers"`

	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`

	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// cmdPredBench benchmarks ComputeDataset in-process: warmup iterations
// populate the scratch pools, then timed iterations record per-call wall
// latency and the runtime.MemStats allocation deltas.
func cmdPredBench(args []string) error {
	fs := flag.NewFlagSet("predbench", flag.ExitOnError)
	edge := fs.Int("edge", 512, "buffer edge length (edge×edge float64)")
	k := fs.Int("k", 8, "block edge length")
	iters := fs.Int("iters", 20, "timed iterations")
	warmup := fs.Int("warmup", 2, "untimed warmup iterations (fill the scratch pools)")
	workers := fs.Int("workers", 0, "predictor workers (0: GOMAXPROCS)")
	out := fs.String("out", "BENCH_predictors.json", "write the JSON report to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *edge < *k || *iters < 1 {
		return fmt.Errorf("need edge ≥ k and iters ≥ 1")
	}

	buf, err := synthBuffer(*edge)
	if err != nil {
		return err
	}
	cfg := crest.PredictorConfig{K: *k, Workers: *workers}
	op := func() error {
		_, err := crest.ComputeDatasetFeatures(buf, cfg)
		return err
	}
	for i := 0; i < *warmup; i++ {
		if err := op(); err != nil {
			return err
		}
	}

	lat := make([]time.Duration, *iters)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range lat {
		t0 := time.Now()
		if err := op(); err != nil {
			return err
		}
		lat[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&after)

	var sum time.Duration
	for _, v := range lat {
		sum += v
	}
	n := int64(*iters)
	rep := predBenchReport{
		Edge:        *edge,
		K:           *k,
		Blocks:      (*edge / *k) * (*edge / *k),
		Iters:       *iters,
		Workers:     *workers,
		P50Seconds:  capacity.Percentile(lat, 0.50).Seconds(),
		P90Seconds:  capacity.Percentile(lat, 0.90).Seconds(),
		MeanSeconds: sum.Seconds() / float64(*iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("predbench: %dx%d k=%d: p50 %.1fms p90 %.1fms, %d allocs/op %d B/op -> %s\n",
		*edge, *edge, *k, 1e3*rep.P50Seconds, 1e3*rep.P90Seconds,
		rep.AllocsPerOp, rep.BytesPerOp, *out)
	return nil
}

// synthBuffer builds the deterministic smooth-plus-oscillation field the
// kernel benchmarks use, so CLI and go-test numbers are comparable.
func synthBuffer(edge int) (*crest.Buffer, error) {
	data := make([]float64, edge*edge)
	for r := 0; r < edge; r++ {
		x := float64(r) / float64(edge)
		for c := 0; c < edge; c++ {
			y := float64(c) / float64(edge)
			data[r*edge+c] = math.Sin(7*x)*math.Cos(5*y) + 0.1*math.Sin(113*(x+2*y))
		}
	}
	return crest.BufferFromSlice(edge, edge, data)
}
