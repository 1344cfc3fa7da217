// Command crest is the command-line front end of the library: it computes
// compressibility predictors, trains estimation models, predicts
// compression ratios with conformal bounds, runs the compressors, and
// prints field-similarity matrices — all on the built-in synthetic
// datasets or on raw little-endian float64 files.
//
// Usage:
//
//	crest metrics    -dataset hurricane -field TC -eps 1e-3
//	crest compress   -dataset hurricane -field TC -compressor szinterp -eps 1e-3
//	crest estimate   -dataset hurricane -field TC -compressor szinterp -eps 1e-3
//	crest similarity -dataset hurricane
//	crest rawfile    -file data.f64 -rows 512 -cols 512 -compressor zfplike -eps 1e-3
//	crest train      -dataset hurricane -field TC -dir models/
//	crest serve      -model-dir models/ -addr localhost:8080
//	crest serve      -registry registry/ -quota "alice=5:10,*=100"
//	crest models     list -url http://localhost:8080
//	crest client     -url http://localhost:8080 -dataset hurricane -step 3
//	crest stream     gen -dataset hurricane -field TC -nz 16 -o tc.crbs
//	crest stream     features -file tc.crbs -eps 1e-3
//	crest list
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	crest "github.com/crestlab/crest"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// The first SIGINT/SIGTERM cancels the context: workers finish the
	// buffer they are on and drain, and the command reports what completed.
	// A second signal kills the process the default way (stop restores the
	// default disposition).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "metrics":
		err = cmdMetrics(args)
	case "compress":
		err = cmdCompress(args)
	case "estimate":
		err = cmdEstimate(ctx, args)
	case "batch":
		err = cmdBatch(ctx, args)
	case "train":
		err = cmdTrain(ctx, args)
	case "serve":
		err = cmdServe(ctx, args)
	case "client":
		err = cmdClient(ctx, args)
	case "models":
		err = cmdModels(ctx, args)
	case "stream":
		err = cmdStream(ctx, args)
	case "capacity":
		err = cmdCapacity(ctx, args)
	case "metricscheck":
		err = cmdMetricsCheck(ctx, args)
	case "similarity":
		err = cmdSimilarity(args)
	case "rawfile":
		err = cmdRawFile(args)
	case "volume":
		err = cmdVolume(args)
	case "list":
		err = cmdList(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "crest: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crest %s: %v\n", cmd, err)
		if errors.Is(err, crest.ErrCanceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `crest <command> [flags]

commands:
  metrics     compute the five compressibility predictors for a field
  compress    run a compressor over a field and report ratios
  estimate    train on part of a field, predict the rest with bounds
  batch       concurrent batch estimation over buffers x error bounds
  train       train an estimator and persist it as a durable snapshot
  serve       serve the estimation HTTP API from a model snapshot
  client      estimate one buffer against a running server (with backoff)
  models      list, promote or roll back a registry server's model lineages
  stream      out-of-core: generate, featurize, estimate or post CRBS block streams
  capacity    sweep a running server's concurrency + Universal Scalability Law fit: contention, coherence, forecast peak
  metricscheck verify a running server's GET /metrics exposes every expected series
  similarity  print the field-similarity (Mahalanobis) matrix of a dataset
  rawfile     compress a raw little-endian float64 file
  volume      compress a whole synthetic field as a 3D volume
  list        list datasets and compressors`)
}

// datasetFlags are shared flags for synthetic-dataset commands.
type datasetFlags struct {
	dataset, field string
	nz, ny, nx     int
	seed           int64
}

func (d *datasetFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&d.dataset, "dataset", "hurricane", "dataset: hurricane|nyx|miranda|cesm")
	fs.StringVar(&d.field, "field", "", "field name (empty: first field)")
	fs.IntVar(&d.nz, "nz", 20, "slices per field")
	fs.IntVar(&d.ny, "ny", 96, "rows per slice")
	fs.IntVar(&d.nx, "nx", 96, "columns per slice")
	fs.Int64Var(&d.seed, "seed", 1, "generation seed")
}

func (d *datasetFlags) load() (*crest.Dataset, *crest.Field, error) {
	opts := crest.DataOptions{NZ: d.nz, NY: d.ny, NX: d.nx, Seed: d.seed}
	var ds *crest.Dataset
	switch d.dataset {
	case "hurricane":
		ds = crest.HurricaneDataset(opts)
	case "nyx":
		ds = crest.NYXDataset(opts)
	case "miranda":
		ds = crest.MirandaDataset(opts)
	case "cesm":
		ds = crest.CESMDataset(opts)
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", d.dataset)
	}
	if d.field == "" {
		return ds, ds.Fields[0], nil
	}
	f := ds.Field(d.field)
	if f == nil {
		return nil, nil, fmt.Errorf("dataset %s has no field %q (have %v)", d.dataset, d.field, ds.FieldNames())
	}
	return ds, f, nil
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	var df datasetFlags
	df.register(fs)
	eps := fs.Float64("eps", 1e-3, "absolute error bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, field, err := df.load()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s", "step")
	for _, n := range crest.FeatureNames {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	for _, b := range field.Buffers {
		f, err := crest.ComputeFeatures(b, *eps, crest.PredictorConfig{})
		if err != nil {
			return err
		}
		fmt.Printf("%-6d", b.Step)
		for _, v := range f.Vector() {
			fmt.Printf(" %12.4f", v)
		}
		fmt.Println()
	}
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	var df datasetFlags
	df.register(fs)
	eps := fs.Float64("eps", 1e-3, "absolute error bound")
	compName := fs.String("compressor", "szinterp", "compressor name")
	verify := fs.Bool("verify", true, "verify the error bound on every buffer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	comp, err := crest.NewCompressor(*compName)
	if err != nil {
		return err
	}
	_, field, err := df.load()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %10s %12s %10s\n", "step", "CR", "maxErr", "boundOK")
	for _, b := range field.Buffers {
		cr, err := crest.CompressionRatio(comp, b, *eps)
		if err != nil {
			return err
		}
		if *verify {
			maxErr, ok, err := crest.VerifyErrorBound(comp, b, *eps)
			if err != nil {
				return err
			}
			fmt.Printf("%-6d %10.3f %12.3e %10v\n", b.Step, cr, maxErr, ok)
		} else {
			fmt.Printf("%-6d %10.3f %12s %10s\n", b.Step, cr, "-", "-")
		}
	}
	return nil
}

func cmdEstimate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	var df datasetFlags
	df.register(fs)
	eps := fs.Float64("eps", 1e-3, "absolute error bound")
	compName := fs.String("compressor", "szinterp", "compressor name")
	trainFrac := fs.Float64("train", 0.7, "fraction of buffers used for training")
	timeout := fs.Duration("timeout", 0, "overall deadline for collection + training (0: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	comp, err := crest.NewCompressor(*compName)
	if err != nil {
		return err
	}
	_, field, err := df.load()
	if err != nil {
		return err
	}
	nTrain := int(*trainFrac * float64(len(field.Buffers)))
	if nTrain < 4 || nTrain >= len(field.Buffers) {
		return fmt.Errorf("train fraction %g leaves %d/%d buffers for training", *trainFrac, nTrain, len(field.Buffers))
	}
	samples, err := crest.CollectSamplesContext(ctx, field.Buffers[:nTrain], comp, *eps, crest.PredictorConfig{}, 0)
	if err != nil {
		return err
	}
	est, err := crest.TrainEstimatorContext(ctx, samples, crest.EstimatorConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d buffers; conformal radius %.4f (log CR)\n", nTrain, est.IntervalRadius())
	fmt.Printf("%-6s %10s %10s %20s %8s\n", "step", "true CR", "est CR", "95% interval", "APE")
	for _, b := range field.Buffers[nTrain:] {
		truth, err := crest.CompressionRatio(comp, b, *eps)
		if err != nil {
			return err
		}
		truth = math.Min(truth, 100)
		feats, err := crest.ComputeFeatureVector(b, *eps, crest.PredictorConfig{})
		if err != nil {
			return err
		}
		e, err := est.Estimate(feats)
		if err != nil {
			return err
		}
		ape := 100 * math.Abs(truth-e.CR) / truth
		fmt.Printf("%-6d %10.3f %10.3f [%8.3f,%8.3f] %7.2f%%\n", b.Step, truth, e.CR, e.Lo, e.Hi, ape)
	}
	return nil
}

func cmdBatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	var df datasetFlags
	df.register(fs)
	epsList := fs.String("eps", "1e-2,1e-3,1e-4", "comma-separated absolute error bounds")
	compName := fs.String("compressor", "szinterp", "compressor name")
	trainFrac := fs.Float64("train", 0.6, "fraction of buffers used for training")
	workers := fs.Int("workers", 0, "worker pool bound (0: GOMAXPROCS)")
	repeat := fs.Int("repeat", 1, "evaluate the whole request batch this many times (exercises the cache)")
	quiet := fs.Bool("quiet", false, "print only the stats snapshot")
	statsJSON := fs.Bool("stats", false, "emit the engine + cache stats snapshot as JSON")
	timeout := fs.Duration("timeout", 0, "per-batch deadline (0: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var epses []float64
	for _, tok := range strings.Split(*epsList, ",") {
		e, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad -eps entry %q: %v", tok, err)
		}
		epses = append(epses, e)
	}
	if len(epses) == 0 {
		return fmt.Errorf("need at least one error bound")
	}
	comp, err := crest.NewCompressor(*compName)
	if err != nil {
		return err
	}
	_, field, err := df.load()
	if err != nil {
		return err
	}
	nTrain := int(*trainFrac * float64(len(field.Buffers)))
	if nTrain < 4 || nTrain >= len(field.Buffers) {
		return fmt.Errorf("train fraction %g leaves %d/%d buffers for training", *trainFrac, nTrain, len(field.Buffers))
	}
	cfg := crest.EstimatorConfig{}
	var samples []crest.Sample
	for _, eps := range epses {
		s, err := crest.CollectSamplesContext(ctx, field.Buffers[:nTrain], comp, eps, cfg.Predictors, 0)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
	}
	est, err := crest.TrainEstimatorContext(ctx, samples, cfg)
	if err != nil {
		return err
	}

	test := field.Buffers[nTrain:]
	reqs := make([]crest.BatchRequest, 0, len(test)*len(epses))
	for _, b := range test {
		for _, eps := range epses {
			reqs = append(reqs, crest.BatchRequest{Buf: b, Eps: eps})
		}
	}
	cache := crest.NewFeatureCache(cfg)
	engine := crest.NewBatchEstimator(est, cache, *workers)
	engine.SetBatchTimeout(*timeout)
	var ests []crest.Estimate
	for r := 0; r < maxInt(*repeat, 1); r++ {
		ests, err = engine.EstimateAllContext(ctx, reqs)
		if err != nil {
			return err
		}
	}
	if !*quiet {
		fmt.Printf("%-6s %10s %10s %20s\n", "step", "eps", "est CR", "95% interval")
		for i, r := range reqs {
			fmt.Printf("%-6d %10.2e %10.3f [%8.3f,%8.3f]\n", r.Buf.Step, r.Eps, ests[i].CR, ests[i].Lo, ests[i].Hi)
		}
	}
	st := engine.Stats()
	if *statsJSON {
		// The same shape /statsz serves for the engine half, so scripts
		// can consume either source.
		doc, err := json.MarshalIndent(struct {
			Workers int              `json:"workers"`
			Engine  crest.BatchStats `json:"engine"`
		}{engine.Workers(), st}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
		return nil
	}
	fmt.Printf("workers:   %d\n", engine.Workers())
	fmt.Printf("requests:  %d in %d batch(es)\n", st.Requests, st.Batches)
	fmt.Printf("cache:     dataset %d hit / %d miss, distortion %d hit / %d miss\n",
		st.Cache.DatasetHits, st.Cache.DatasetMisses, st.Cache.EBHits, st.Cache.EBMisses)
	fmt.Printf("occupancy: peak %d in-flight\n", st.PeakInFlight)
	fmt.Printf("stages:    features %s, estimate %s (summed), wall %s\n",
		st.FeatureTime.Round(time.Microsecond), st.EstimateTime.Round(time.Microsecond),
		st.WallTime.Round(time.Microsecond))
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func cmdSimilarity(args []string) error {
	fs := flag.NewFlagSet("similarity", flag.ExitOnError)
	var df datasetFlags
	df.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, _, err := df.load()
	if err != nil {
		return err
	}
	sim, err := crest.FieldSimilarity(ds.Fields, crest.PredictorConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "")
	for _, f := range sim.Fields {
		fmt.Printf(" %8.8s", f)
	}
	fmt.Println()
	for i := range sim.Fields {
		fmt.Printf("%-8.8s", sim.Fields[i])
		for j := range sim.Fields {
			fmt.Printf(" %8.1f", sim.D[i][j])
		}
		fmt.Println()
	}
	return nil
}

func cmdRawFile(args []string) error {
	fs := flag.NewFlagSet("rawfile", flag.ExitOnError)
	file := fs.String("file", "", "raw little-endian float64 file")
	rows := fs.Int("rows", 0, "rows")
	cols := fs.Int("cols", 0, "columns")
	eps := fs.Float64("eps", 1e-3, "absolute error bound")
	compName := fs.String("compressor", "szinterp", "compressor name")
	out := fs.String("o", "", "write compressed stream to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" || *rows <= 0 || *cols <= 0 {
		return fmt.Errorf("need -file, -rows and -cols")
	}
	raw, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	if len(raw) != 8**rows**cols {
		return fmt.Errorf("file holds %d bytes, want %d for %dx%d float64", len(raw), 8**rows**cols, *rows, *cols)
	}
	data := make([]float64, *rows**cols)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	buf, err := crest.BufferFromSlice(*rows, *cols, data)
	if err != nil {
		return err
	}
	comp, err := crest.NewCompressor(*compName)
	if err != nil {
		return err
	}
	blob, err := comp.Compress(buf, *eps)
	if err != nil {
		return err
	}
	feats, err := crest.ComputeFeatures(buf, *eps, crest.PredictorConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("compressed %d -> %d bytes (CR %.3f) with %s at eps %g\n",
		buf.SizeBytes(), len(blob), float64(buf.SizeBytes())/float64(len(blob)), *compName, *eps)
	fmt.Printf("predictors: SD=%.4f SC=%.4f CG=%.4f CovSVD=%.4f D=%.4f\n",
		feats.SD, feats.SC, feats.CodingGain, feats.CovSVDTrunc, feats.Distortion)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdVolume(args []string) error {
	fs := flag.NewFlagSet("volume", flag.ExitOnError)
	var df datasetFlags
	df.register(fs)
	eps := fs.Float64("eps", 1e-3, "absolute error bound")
	rel := fs.Float64("rel", 0, "value-range-relative bound (overrides -eps when > 0)")
	compName := fs.String("compressor", "szinterp", "compressor name")
	workers := fs.Int("workers", 4, "slice-compression workers")
	out := fs.String("o", "", "write the packed volume stream to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	comp, err := crest.NewCompressor(*compName)
	if err != nil {
		return err
	}
	_, field, err := df.load()
	if err != nil {
		return err
	}
	// Reassemble the field's slices into one contiguous volume.
	nz := len(field.Buffers)
	vol, err := crest.NewVolume(nz, field.Buffers[0].Rows, field.Buffers[0].Cols)
	if err != nil {
		return err
	}
	vol.Field = field.Name
	for z, b := range field.Buffers {
		copy(vol.Data[z*vol.NY*vol.NX:], b.Data)
	}
	bound := *eps
	if *rel > 0 {
		bound = crest.RelativeBound(vol.Slice(0), *rel)
		for z := 1; z < nz; z++ {
			if b := crest.RelativeBound(vol.Slice(z), *rel); b > bound {
				bound = b
			}
		}
		fmt.Printf("relative bound %g -> absolute %g\n", *rel, bound)
	}
	blob, err := crest.CompressVolume(comp, vol, bound, *workers)
	if err != nil {
		return err
	}
	back, err := crest.DecompressVolume(comp, blob, *workers)
	if err != nil {
		return err
	}
	worst := 0.0
	for i := range vol.Data {
		if d := math.Abs(vol.Data[i] - back.Data[i]); d > worst {
			worst = d
		}
	}
	raw := 8 * len(vol.Data)
	fmt.Printf("volume %s/%s %dx%dx%d: %d -> %d bytes (CR %.3f), max error %.3e (bound %g)\n",
		df.dataset, field.Name, vol.NZ, vol.NY, vol.NX, raw, len(blob),
		float64(raw)/float64(len(blob)), worst, bound)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdList(args []string) error {
	fmt.Println("datasets:    hurricane nyx miranda cesm")
	fmt.Print("compressors:")
	for _, n := range crest.CompressorNames() {
		fmt.Printf(" %s", n)
	}
	fmt.Println()
	return nil
}
