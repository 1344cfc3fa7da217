package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/server"
)

// engineWorkers is both the batch engine's worker bound and the server's
// MaxInflight: one slot per core of the 2-core reference machine.
const engineWorkers = 2

// trainSet is the held-out data a workload's model is fitted on: buffers
// of the workload's own shape, at the bounds the workload asks for, with
// szinterp ground truth.
type trainSet struct {
	bufs []*grid.Buffer
	eps  []float64
	// f32 featurizes through the float32 stream core, as the stream
	// workload's requests are; bufs then hold float32-rounded values.
	f32 bool
}

// model is a trained estimator plus the compression cost measured while
// collecting its ground truth.
type model struct {
	est *core.Estimator
	// szMs is the median wall time of one szinterp compression of a
	// training buffer: the work an estimate stands in for.
	szMs float64
}

// train featurizes every training buffer at every bound, compresses it
// with szinterp for the true ratio, and fits the estimator — the model
// set-up a `crest train` run performs, on this workload's data.
func train(ctx context.Context, ts trainSet) (*model, error) {
	cfg := core.Config{}
	type row struct {
		samples []core.Sample
		szMs    []float64
		err     error
	}
	rows := make([]row, len(ts.bufs))
	forEach(len(ts.bufs), engineWorkers, func(i int) {
		r := &rows[i]
		feats, err := featuresAt(ts.bufs[i], ts.eps, ts.f32, cfg.Predictors)
		if err != nil {
			r.err = err
			return
		}
		for k, eps := range ts.eps {
			t0 := time.Now()
			cr, err := compressors.Ratio(compressors.NewSZInterp(), ts.bufs[i], eps)
			r.szMs = append(r.szMs, float64(time.Since(t0))/1e6)
			if err != nil {
				r.err = fmt.Errorf("szinterp: %w", err)
				return
			}
			r.samples = append(r.samples, core.Sample{Features: feats[k], CR: cr})
		}
	})
	var samples []core.Sample
	var sz []float64
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("training data: %w", r.err)
		}
		samples = append(samples, r.samples...)
		sz = append(sz, r.szMs...)
	}
	est, err := core.TrainContext(ctx, samples, cfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return &model{est: est, szMs: median(sz)}, nil
}

// featuresAt returns the feature vector of buf at every bound, through
// the in-memory float64 path or, for f32, the float32 stream core.
func featuresAt(buf *grid.Buffer, epses []float64, f32 bool, cfg predictors.Config) ([][]float64, error) {
	out := make([][]float64, len(epses))
	if f32 {
		var enc bytes.Buffer
		if err := grid.EncodeBuffer(&enc, buf, grid.DTypeF32, streamChunkRows); err != nil {
			return nil, err
		}
		cr, err := grid.NewChunkReader(&enc)
		if err != nil {
			return nil, err
		}
		sfs, err := predictors.ComputeStream(cr, epses, cfg)
		if err != nil {
			return nil, err
		}
		for k := range epses {
			out[k] = sfs[0].FeaturesAt(k).Vector()
		}
		return out, nil
	}
	df, err := predictors.ComputeDataset(buf, cfg)
	if err != nil {
		return nil, err
	}
	for k, eps := range epses {
		d, err := predictors.ComputeEB(buf, eps, cfg)
		if err != nil {
			return nil, err
		}
		out[k] = predictors.Combine(df, d).Vector()
	}
	return out, nil
}

// stack is the booted serving stack of one workload: the model behind a
// batch engine and feature cache, and — for HTTP workloads — the server
// on a loopback listener with a keep-alive client.
type stack struct {
	cache  *featcache.Cache
	engine *batch.Engine
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// boot builds the stack over a trained model. With a tracer, the feature
// cache computes through the tracer's predictor wrappers and the server
// runs the tracer's middleware; nothing else differs.
func boot(m *model, withHTTP bool, tr *tracer) (*stack, error) {
	reg := obs.NewRegistry()
	pcfg := m.est.PredictorConfig()
	cache := featcache.New(pcfg)
	if tr != nil {
		cache = featcache.NewWithCompute(pcfg, tr.dataset, tr.eb)
	}
	cache.SetObs(reg)
	eng := batch.New(m.est, cache, engineWorkers)
	eng.SetObs(reg)
	st := &stack{cache: cache, engine: eng}
	if !withHTTP {
		return st, nil
	}
	cfg := server.Config{Engine: eng, MaxInflight: engineWorkers, Obs: reg}
	if tr != nil {
		cfg.Middleware = tr.middleware
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.srv = srv
	st.hs = &http.Server{Handler: srv.Handler()}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.url = "http://" + ln.Addr().String() + "/v1/estimate"
	st.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: engineWorkers,
		DisableCompression:  true,
	}}
	return st, nil
}

// close drains the server and waits for its accept loop to exit.
func (st *stack) close() {
	if st.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Drain(ctx) // a drain timeout leaves nothing to do but Close
	st.client.CloseIdleConnections()
	if err := st.hs.Shutdown(ctx); err != nil {
		st.hs.Close()
	}
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("  warning: server exited: %v\n", err)
	}
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
