// Package server is the network boundary of the estimation pipeline: an
// HTTP JSON API over the concurrent batch engine, built so that a trained
// CREST model can be consulted per-buffer at I/O time by remote writers —
// and so that the boundary degrades instead of collapsing when traffic
// exceeds capacity.
//
// Robustness model, layered on the PR-2 in-process guarantees:
//
//   - Admission control: a bounded inflight semaphore caps concurrent
//     estimation work; a bounded queue absorbs short bursts. A request
//     that finds both full is shed immediately with 503 and a
//     Retry-After hint — the server stays at its saturation throughput
//     instead of accumulating unbounded work and dying.
//   - Per-request deadlines: every admitted request runs under a context
//     deadline mapped onto the engine's cancellation plumbing; an
//     expired deadline yields 504 and the worker drains.
//   - Panic isolation: a panicking handler (or injected chaos fault)
//     becomes a 500 with a typed error body, never a process crash.
//   - Graceful drain: Drain withdraws readiness first (load balancers
//     stop routing), rejects new work with 503, lets inflight requests
//     finish, and only then returns — the SIGTERM sequence of
//     `crest serve`.
//
// Endpoints:
//
//	POST /v1/estimate  one buffer + bound -> one conformal estimate
//	POST /v1/batch     many buffers x bounds -> per-request results
//	GET  /healthz      process liveness (always 200 while serving)
//	GET  /readyz       admission readiness (503 while draining)
//	GET  /statsz       server + engine + feature-cache counters
//	GET  /metrics      observability registry snapshot (JSON): counters,
//	                   gauges, per-endpoint latency histograms with
//	                   p50/p90/p99, per-predictor timing, cache hit rate
//	GET  /debug/pprof  Go profiling endpoints (Config.EnablePprof only)
//
// Tracing: every request gets an ID — adopted from the X-Request-ID
// header when the client sent one, minted otherwise — echoed on the
// response, attached to the request context (so batch-engine errors
// carry it), and logged on slow requests.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/capacity"
	"github.com/crestlab/crest/internal/cluster"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/registry"
)

// Config tunes the serving boundary. Engine is required; everything else
// has serviceable defaults.
type Config struct {
	// Engine is the batch-estimation engine requests run on.
	Engine *batch.Engine

	// MaxInflight caps concurrently executing requests (default: the
	// engine's worker bound). MaxQueue bounds requests waiting for a
	// slot (default 4×MaxInflight); beyond it, requests are shed.
	MaxInflight int
	MaxQueue    int

	// RequestTimeout bounds each admitted request (default 30s; negative
	// disables).
	RequestTimeout time.Duration

	// RetryAfter is the backoff hint advertised on 503 responses
	// (default 1s).
	RetryAfter time.Duration

	// MaxBodyBytes caps a request body, JSON or CRBS stream (default
	// 64 MiB).
	MaxBodyBytes int64

	// Middleware, when set, wraps the route handlers inside the panic
	// recovery layer — the seam the chaos harness injects slow, failing
	// and panicking handlers through.
	Middleware func(http.Handler) http.Handler

	// Obs is the metrics registry the server records into and exports at
	// GET /metrics (default: the process-wide obs.Default()). Tests pass
	// their own registry for isolation.
	Obs *obs.Registry

	// SlowRequest is the duration beyond which a completed request is
	// logged with its request ID (default 1s; negative disables).
	SlowRequest time.Duration

	// Logger receives the server's structured log lines; nil discards
	// them.
	Logger *slog.Logger

	// EnablePprof mounts the Go profiler under GET /debug/pprof/.
	EnablePprof bool

	// CapacityWindow, when positive, starts the online capacity sampler:
	// every interval the server pairs its served-counter delta with the
	// admission-semaphore occupancy (the concurrency level it actually
	// ran at), accumulating an X(N) curve that /statsz exposes — with a
	// USL fit and saturation forecast once enough distinct busy levels
	// exist — under the "capacity" key. The sampler also maintains the
	// capacity_* series: capacity_samples_total (ticks taken),
	// capacity_levels (distinct busy levels), capacity_last_inflight.
	// Zero disables sampling entirely.
	CapacityWindow time.Duration

	// Cluster, when set, makes this server one node of a replicated
	// fleet: estimate and batch keys are consistent-hash-routed to their
	// owner replica set, non-owned requests are forwarded (with hedging
	// and circuit breaking) and, when every remote owner is unusable, the
	// request is served from the local model with `degraded: true`. The
	// caller owns the cluster's lifecycle (Start/Close).
	Cluster *cluster.Cluster

	// Registry, when set, puts the server in multi-tenant registry mode:
	// requests route to the active model of a named lineage
	// (LineageHeader), tenants (TenantHeader) run under admission quotas
	// (429 + Retry-After on exhaustion, distinct from overload 503),
	// feedback reaches the lineage's active model, and the /v1/models
	// admin endpoints are mounted. Engine may then be nil; the registry's
	// default lineage stands in for introspection. Mutually exclusive with
	// Cluster.
	Registry *registry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = c.Engine.Workers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the HTTP serving layer. Construct with New; a Server is safe
// for concurrent use and for a single Drain.
type Server struct {
	cfg    Config
	engine *batch.Engine

	inflight chan struct{} // admission semaphore
	queued   atomic.Int64

	mu       sync.Mutex
	draining bool
	active   int           // requests between begin/end (admitted or queued)
	drainCh  chan struct{} // closed when draining starts
	idleCh   chan struct{} // closed when active hits 0 while draining

	ready atomic.Bool

	// Counters. The atomics are the per-instance source of truth for
	// Stats(); each is mirrored onto the observability registry, which
	// may be shared process-wide. Client-caused failures (4xx) and
	// server-caused failures (5xx) are counted separately so malformed
	// input load cannot masquerade as a server failure rate; the wire
	// `failed` field stays their sum for compatibility.
	accepted      atomic.Uint64
	served        atomic.Uint64
	clientErrors  atomic.Uint64
	serverErrors  atomic.Uint64
	shed          atomic.Uint64
	drainRejected atomic.Uint64
	timeouts      atomic.Uint64
	panics        atomic.Uint64
	quotaRejected atomic.Uint64

	// Registry handles, resolved once at construction.
	m  serverMetrics
	sm streamMetrics
	cm clusterServerMetrics

	// Online capacity sampling (Config.CapacityWindow > 0 only).
	capWin      *capacity.Window
	capStop     chan struct{}
	capDone     chan struct{} // closed when the sampler goroutine exits
	capStopOnce sync.Once
	capMetrics  capacityMetrics
}

// capacityMetrics are the capacity_* series handles, resolved only when
// the online sampler is enabled so a sampler-less server does not
// advertise empty capacity series.
type capacityMetrics struct {
	samples      *obs.Counter
	levels       *obs.Gauge
	lastInflight *obs.Gauge
}

// serverMetrics are the server's handles into the observability registry:
// mirrored counters, occupancy gauges, and per-endpoint latency
// histograms.
type serverMetrics struct {
	accepted      *obs.Counter
	served        *obs.Counter
	clientErrors  *obs.Counter
	serverErrors  *obs.Counter
	shed          *obs.Counter
	drainRejected *obs.Counter
	timeouts      *obs.Counter
	panics        *obs.Counter

	queueDepth *obs.Gauge
	inflight   *obs.Gauge

	latency map[string]*obs.Histogram // by endpoint label
}

// endpointLabels are the route labels carrying their own latency series;
// anything else records under "other".
var endpointLabels = []string{"estimate", "stream", "batch", "feedback", "healthz", "readyz", "statsz", "metrics", "models", "other"}

func newServerMetrics(r *obs.Registry) serverMetrics {
	m := serverMetrics{
		accepted:      r.Counter("server_accepted_total"),
		served:        r.Counter("server_served_total"),
		clientErrors:  r.Counter("server_client_errors_total"),
		serverErrors:  r.Counter("server_server_errors_total"),
		shed:          r.Counter("server_shed_total"),
		drainRejected: r.Counter("server_drain_rejected_total"),
		timeouts:      r.Counter("server_timeouts_total"),
		panics:        r.Counter("server_panics_total"),
		queueDepth:    r.Gauge("server_queue_depth"),
		inflight:      r.Gauge("server_inflight"),
		latency:       make(map[string]*obs.Histogram, len(endpointLabels)),
	}
	for _, l := range endpointLabels {
		m.latency[l] = r.Histogram("http_request_seconds_" + l)
	}
	return m
}

// endpointLabel maps a request to its latency-series label. A CRBS
// stream posted to /v1/estimate is "stream": its multi-slice latency
// must not blur the JSON estimate series.
func endpointLabel(r *http.Request) string {
	switch path := r.URL.Path; path {
	case "/v1/estimate":
		if isStreamRequest(r) {
			return "stream"
		}
		return "estimate"
	case "/v1/batch":
		return "batch"
	case "/v1/feedback":
		return "feedback"
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/statsz":
		return "statsz"
	case "/metrics":
		return "metrics"
	default:
		if strings.HasPrefix(path, "/v1/models") {
			return "models"
		}
		return "other"
	}
}

// New builds a server over an engine, or — in registry mode — over the
// registry's lineages, with the default lineage's engine standing in for
// capacity sizing and introspection.
func New(cfg Config) (*Server, error) {
	if cfg.Registry != nil && cfg.Cluster != nil {
		return nil, errors.New("server: registry and cluster modes are mutually exclusive")
	}
	if cfg.Engine == nil {
		if cfg.Registry == nil {
			return nil, errors.New("server: nil engine")
		}
		eng, err := registryFallbackEngine(cfg.Registry)
		if err != nil {
			return nil, err
		}
		cfg.Engine = eng
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		engine:   cfg.Engine,
		inflight: make(chan struct{}, cfg.MaxInflight),
		drainCh:  make(chan struct{}),
		idleCh:   make(chan struct{}),
		m:        newServerMetrics(cfg.Obs),
		sm:       newStreamMetrics(cfg.Obs),
		cm:       newClusterServerMetrics(cfg.Obs),
	}
	s.ready.Store(true)
	if cfg.CapacityWindow > 0 {
		s.capWin = capacity.NewWindow()
		s.capStop = make(chan struct{})
		s.capDone = make(chan struct{})
		s.capMetrics = capacityMetrics{
			samples:      cfg.Obs.Counter("capacity_samples_total"),
			levels:       cfg.Obs.Gauge("capacity_levels"),
			lastInflight: cfg.Obs.Gauge("capacity_last_inflight"),
		}
		go s.capacitySampler()
	}
	return s, nil
}

// capacitySampler ticks the online capacity window until Drain stops it.
func (s *Server) capacitySampler() {
	defer close(s.capDone)
	t := time.NewTicker(s.cfg.CapacityWindow)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			inflight := len(s.inflight)
			s.capWin.Tick(now, s.served.Load(), inflight)
			s.capMetrics.samples.Inc()
			s.capMetrics.levels.Set(int64(s.capWin.DistinctLevels()))
			s.capMetrics.lastInflight.Set(int64(inflight))
		case <-s.capStop:
			return
		}
	}
}

// stopCapacitySampler halts the sampler goroutine and waits for it to
// exit, so no tick lands after Drain returns (idempotent, safe when the
// sampler was never started).
func (s *Server) stopCapacitySampler() {
	if s.capStop == nil {
		return
	}
	s.capStopOnce.Do(func() { close(s.capStop) })
	<-s.capDone
}

// SetReady flips admission readiness without draining (manual maintenance
// mode). Draining overrides it.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether the server currently admits work.
func (s *Server) Ready() bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return s.ready.Load() && !draining
}

// Drain performs the graceful-shutdown sequence: readiness is withdrawn
// and new requests are rejected with 503, queued waiters are released,
// and the call blocks until every inflight request has finished (or ctx
// expires, returning its error with work still in flight). Drain is
// idempotent; concurrent calls all block until idle.
func (s *Server) Drain(ctx context.Context) error {
	s.stopCapacitySampler()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	if s.active == 0 {
		select {
		case <-s.idleCh:
		default:
			close(s.idleCh)
		}
	}
	idle := s.idleCh
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginRequest registers an estimation request with the drain tracker.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Server) endRequest() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && s.draining {
		select {
		case <-s.idleCh:
		default:
			close(s.idleCh)
		}
	}
	s.mu.Unlock()
}

// admit acquires an execution slot, waiting in the bounded queue when the
// semaphore is full. It returns a release function on success; on failure
// the error matches crerr.ErrOverloaded (queue full), crerr.ErrDraining
// (shutdown began while queued) or crerr.ErrCanceled (caller gave up).
func (s *Server) admit(ctx context.Context) (func(), error) {
	release := func() {
		<-s.inflight
		s.m.inflight.Add(-1)
	}
	select {
	case s.inflight <- struct{}{}:
		s.m.inflight.Add(1)
		return release, nil
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, fmt.Errorf("%w: %d inflight, queue of %d full",
			crerr.ErrOverloaded, s.cfg.MaxInflight, s.cfg.MaxQueue)
	}
	s.m.queueDepth.Add(1)
	defer func() {
		s.queued.Add(-1)
		s.m.queueDepth.Add(-1)
	}()
	select {
	case s.inflight <- struct{}{}:
		s.m.inflight.Add(1)
		return release, nil
	case <-s.drainCh:
		return nil, crerr.ErrDraining
	case <-ctx.Done():
		return nil, crerr.Canceled(ctx.Err())
	}
}

// Handler returns the server's route tree wrapped, outermost first, in
// panic recovery, the instrumentation layer (request IDs, per-endpoint
// latency, slow-request log) and the configured middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Registry != nil {
		mux.HandleFunc("GET /v1/models", s.handleModelsList)
		mux.HandleFunc("GET /v1/models/{lineage}", s.handleModelGet)
		mux.HandleFunc("POST /v1/models/{lineage}/promote", s.handleModelPromote)
		mux.HandleFunc("POST /v1/models/{lineage}/rollback", s.handleModelRollback)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	var h http.Handler = mux
	if s.cfg.Middleware != nil {
		h = s.cfg.Middleware(h)
	}
	return s.recoverPanics(s.instrument(h))
}

// statusRecorder captures the response status for classification and
// logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument is the tracing and latency layer: it adopts or mints the
// request ID, threads it through the context (the batch engine stamps it
// into per-request errors) and the X-Request-ID response header, records
// the request on its endpoint's latency histogram, and logs requests
// slower than Config.SlowRequest with their ID so a client report can be
// joined against the server log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(obs.WithRequestID(r.Context(), rid))

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		dur := time.Since(start)

		s.m.latency[endpointLabel(r)].Observe(dur.Seconds())
		if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
			s.cfg.Logger.Warn("slow request",
				"rid", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration", dur.String())
		}
	})
}

// recoverPanics is the outermost layer: any panic below it — handler bug,
// injected chaos fault — becomes a 500 with a typed body and a logged
// stack, reusing the crerr taxonomy bridge.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.m.panics.Inc()
				err := crerr.Recovered(v, crerr.ErrInvalidBuffer)
				s.cfg.Logger.Error("recovered panic", "method", r.Method, "path", r.URL.Path, "panic", v)
				s.writeError(w, http.StatusInternalServerError, "panic", err)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ---------------------------------------------------------------------------
// Wire types

// EstimateRequest is one buffer × bound estimation ask.
type EstimateRequest struct {
	Dataset string    `json:"dataset,omitempty"`
	Field   string    `json:"field,omitempty"`
	Step    int       `json:"step,omitempty"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Data    []float64 `json:"data"`
	Eps     float64   `json:"eps"`
}

// buffer validates the request and builds the engine's buffer.
func (er *EstimateRequest) buffer() (*grid.Buffer, error) {
	if er.Eps <= 0 {
		return nil, fmt.Errorf("%w: eps %g", crerr.ErrInvalidBuffer, er.Eps)
	}
	buf, err := grid.FromSlice(er.Rows, er.Cols, er.Data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", crerr.ErrInvalidBuffer, err)
	}
	buf.Dataset, buf.Field, buf.Step = er.Dataset, er.Field, er.Step
	if err := buf.Validate(grid.DefaultValidation); err != nil {
		return nil, err
	}
	return buf, nil
}

// EstimateResponse is one conformal estimate. Degraded marks a clustered
// response served from the local model because every owner replica was
// unusable — the answer is real, but came from outside the key's replica
// set (so its feature cache and online calibration may be colder).
type EstimateResponse struct {
	CR       float64 `json:"cr"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Degraded bool    `json:"degraded,omitempty"`
}

// WireError is the JSON error body: a stable kind for routing plus the
// human-readable message.
type WireError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// BatchWireRequest asks for many estimates at once.
type BatchWireRequest struct {
	Requests []EstimateRequest `json:"requests"`
}

// BatchItem is one slot of a batch response: a result or an error.
type BatchItem struct {
	Result *EstimateResponse `json:"result,omitempty"`
	Error  *WireError        `json:"error,omitempty"`
}

// BatchWireResponse carries per-request results in request order.
type BatchWireResponse struct {
	Results []BatchItem `json:"results"`
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if isStreamRequest(r) {
		s.handleEstimateStream(w, r)
		return
	}
	s.withAdmission(w, r, func(ctx context.Context) {
		engine, err := s.engineFor(w, r)
		if err != nil {
			s.failRequest(w, err)
			return
		}
		var req EstimateRequest
		raw, err := s.decodeBody(w, r, &req)
		if err != nil {
			s.failRequest(w, err)
			return
		}
		degraded := false
		if s.clustered() {
			var handled bool
			if handled, degraded = s.routeEstimate(ctx, w, r, &req, raw); handled {
				return
			}
		}
		ests, errs, err := estimate(ctx, engine, []EstimateRequest{req}, []int{0})
		if err == nil {
			err = errs[0]
		}
		if err != nil {
			s.failRequest(w, err)
			return
		}
		if s.clustered() {
			w.Header().Set(cluster.ServedByHeader, s.cfg.Cluster.Self())
		}
		e := ests[0]
		s.respond(w, EstimateResponse{CR: e.CR, Lo: e.Lo, Hi: e.Hi, Degraded: degraded})
	})
}

// maxBatch caps the request count of one /v1/batch call.
const maxBatch = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.withAdmission(w, r, func(ctx context.Context) {
		engine, err := s.engineFor(w, r)
		if err != nil {
			s.failRequest(w, err)
			return
		}
		var wire BatchWireRequest
		if _, err := s.decodeBody(w, r, &wire); err != nil {
			s.failRequest(w, err)
			return
		}
		if len(wire.Requests) == 0 {
			s.failRequest(w, fmt.Errorf("%w: empty batch", crerr.ErrInvalidBuffer))
			return
		}
		if len(wire.Requests) > maxBatch {
			s.failRequest(w, fmt.Errorf("%w: batch of %d exceeds limit %d",
				crerr.ErrInvalidBuffer, len(wire.Requests), maxBatch))
			return
		}
		out := BatchWireResponse{Results: make([]BatchItem, len(wire.Requests))}
		if s.clustered() {
			s.runBatchClustered(ctx, r, &wire, out.Results)
			w.Header().Set(cluster.ServedByHeader, s.cfg.Cluster.Self())
		} else {
			idx := allIndices(len(wire.Requests))
			ests, errs, err := estimate(ctx, engine, wire.Requests, idx)
			// A whole-batch cancellation is a request-level failure.
			if err != nil {
				s.failRequest(w, err)
				return
			}
			s.fillBatch(out.Results, idx, ests, errs, false)
		}
		s.respond(w, out)
	})
}

// estimate runs wire[idx[j]] for every j on engine: structurally invalid
// requests never reach the engine, valid ones run concurrently. errs[j]
// is request idx[j]'s own failure (rejection or per-request engine
// error); ests[j] is its estimate when errs[j] is nil. err reports a
// whole-call failure (cancellation), which leaves the valid requests
// without an estimate or an error of their own.
func estimate(ctx context.Context, engine *batch.Engine, wire []EstimateRequest, idx []int) (ests []core.Estimate, errs []error, err error) {
	ests = make([]core.Estimate, len(idx))
	errs = make([]error, len(idx))
	reqs := make([]batch.Request, 0, len(idx))
	valid := make([]int, 0, len(idx))
	for j, i := range idx {
		buf, berr := wire[i].buffer()
		if berr != nil {
			errs[j] = berr
			continue
		}
		reqs = append(reqs, batch.Request{Buf: buf, Eps: wire[i].Eps})
		valid = append(valid, j)
	}
	if len(reqs) == 0 {
		return ests, errs, nil
	}
	out, err := engine.EstimateAllContext(ctx, reqs)
	var agg *crerr.AggregateError
	if err != nil && !errors.As(err, &agg) {
		return ests, errs, err
	}
	for v, j := range valid {
		if agg != nil {
			if perReq := agg.ByIndex(v); perReq != nil {
				errs[j] = perReq
				continue
			}
		}
		ests[j] = out[v]
	}
	return ests, errs, nil
}

// fillBatch writes one estimate call's outcome into the batch slots idx,
// counting each failed item like a failed request. degraded marks the
// results served locally for an unreachable fleet owner.
func (s *Server) fillBatch(results []BatchItem, idx []int, ests []core.Estimate, errs []error, degraded bool) {
	for j, i := range idx {
		if errs[j] != nil {
			kind, status := classify(errs[j])
			s.count(status)
			results[i] = BatchItem{Error: &WireError{Kind: kind, Message: errs[j].Error()}}
			continue
		}
		e := ests[j]
		results[i] = BatchItem{Result: &EstimateResponse{CR: e.CR, Lo: e.Lo, Hi: e.Hi, Degraded: degraded}}
	}
}

// withAdmission runs fn under the full admission pipeline: per-tenant
// quota (registry mode), drain check, semaphore/queue, per-request
// deadline.
func (s *Server) withAdmission(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context)) {
	if !s.checkQuota(w, r) {
		return
	}
	if !s.ready.Load() || !s.beginRequest() {
		s.drainRejected.Add(1)
		s.m.drainRejected.Inc()
		s.writeShed(w, crerr.ErrDraining)
		return
	}
	defer s.endRequest()
	release, err := s.admit(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, crerr.ErrOverloaded):
			s.shed.Add(1)
			s.m.shed.Inc()
		case errors.Is(err, crerr.ErrDraining):
			s.drainRejected.Add(1)
			s.m.drainRejected.Inc()
		}
		s.writeShed(w, err)
		return
	}
	defer release()
	s.accepted.Add(1)
	s.m.accepted.Inc()

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	fn(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Ready() {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	s.setRetryAfter(w)
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}

// StatsPayload is the /statsz body: serving-layer counters plus the
// engine snapshot (which embeds the shared feature-cache counters).
type StatsPayload struct {
	Server Stats       `json:"server"`
	Engine batch.Stats `json:"engine"`
	// Conformal is present when online recalibration is enabled.
	Conformal *OnlineSnapshot `json:"conformal,omitempty"`
	// Cluster is present when this node serves as part of a fleet.
	Cluster *ClusterBlock `json:"cluster,omitempty"`
	// Registry is present in registry mode: one entry per lineage.
	Registry []registry.LineageInfo `json:"registry,omitempty"`
	// Capacity is present when the online sampler runs
	// (Config.CapacityWindow > 0): the observed X(N) curve and, with
	// enough distinct busy levels, its USL fit and saturation forecast.
	Capacity *capacity.WindowSnapshot `json:"capacity,omitempty"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	engine := s.currentEngine()
	payload := StatsPayload{
		Server:   s.Stats(),
		Engine:   engine.Stats(),
		Cluster:  s.clusterBlock(),
		Registry: s.registryBlock(),
	}
	if st, ok := engine.Estimator().OnlineStats(); ok {
		payload.Conformal = onlineSnapshot(st)
	}
	if s.capWin != nil {
		snap := s.capWin.Snapshot()
		payload.Capacity = &snap
	}
	s.writeJSON(w, http.StatusOK, payload)
}

// MetricsPayload is the GET /metrics body: the full registry snapshot
// plus derived convenience figures scripts would otherwise recompute.
type MetricsPayload struct {
	obs.Snapshot
	Derived DerivedMetrics `json:"derived"`
}

// DerivedMetrics are ratios computed from the raw series at read time.
type DerivedMetrics struct {
	// FeatcacheHitRate is hits / (hits + misses) of the engine's shared
	// feature cache, 0 before any lookup.
	FeatcacheHitRate float64 `json:"featcache_hit_rate"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, MetricsPayload{
		Snapshot: s.cfg.Obs.Snapshot(),
		Derived: DerivedMetrics{
			FeatcacheHitRate: s.currentEngine().Stats().Cache.HitRate(),
		},
	})
}

// Stats is a point-in-time snapshot of the serving-layer counters.
type Stats struct {
	// Accepted counts requests admitted past the semaphore; Served the
	// 2xx completions; ClientErrors per-request failures the client
	// caused (4xx: malformed body, invalid buffer, oversized payload);
	// ServerErrors failures the server caused (5xx: degenerate model,
	// internal errors) plus 504 timeouts; Failed their sum, kept for
	// wire compatibility; Shed 503s from a full queue; DrainRejected
	// 503s during drain or unreadiness; Timeouts 504s from expired
	// deadlines; RecoveredPanics handler panics converted to 500s.
	Accepted        uint64 `json:"accepted"`
	Served          uint64 `json:"served"`
	Failed          uint64 `json:"failed"`
	ClientErrors    uint64 `json:"client_errors"`
	ServerErrors    uint64 `json:"server_errors"`
	Shed            uint64 `json:"shed"`
	DrainRejected   uint64 `json:"drain_rejected"`
	Timeouts        uint64 `json:"timeouts"`
	RecoveredPanics uint64 `json:"recovered_panics"`
	// QuotaRejected counts 429s from per-tenant quota exhaustion
	// (registry mode) — deliberately separate from Shed: quota is the
	// tenant's backpressure, shed is the server's.
	QuotaRejected uint64 `json:"quota_rejected"`

	// Inflight and Queued are current occupancy; MaxInflight and
	// MaxQueue the configured bounds.
	Inflight    int `json:"inflight"`
	Queued      int `json:"queued"`
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`

	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	ce, se := s.clientErrors.Load(), s.serverErrors.Load()
	return Stats{
		Accepted:        s.accepted.Load(),
		Served:          s.served.Load(),
		Failed:          ce + se,
		ClientErrors:    ce,
		ServerErrors:    se,
		Shed:            s.shed.Load(),
		DrainRejected:   s.drainRejected.Load(),
		Timeouts:        s.timeouts.Load(),
		RecoveredPanics: s.panics.Load(),
		QuotaRejected:   s.quotaRejected.Load(),
		Inflight:        len(s.inflight),
		Queued:          int(s.queued.Load()),
		MaxInflight:     s.cfg.MaxInflight,
		MaxQueue:        s.cfg.MaxQueue,
		Ready:           s.ready.Load() && !draining,
		Draining:        draining,
	}
}

// ---------------------------------------------------------------------------
// Response plumbing

// classify maps a pipeline error onto (wire kind, HTTP status) using the
// crerr taxonomy.
func classify(err error) (string, int) {
	switch {
	case errors.Is(err, crerr.ErrQuotaExceeded):
		return "quota_exceeded", http.StatusTooManyRequests
	case errors.Is(err, crerr.ErrUnknownLineage):
		return "unknown_lineage", http.StatusNotFound
	case errors.Is(err, crerr.ErrOverloaded):
		return "overloaded", http.StatusServiceUnavailable
	case errors.Is(err, crerr.ErrDraining):
		return "draining", http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded", http.StatusGatewayTimeout
	case errors.Is(err, crerr.ErrCanceled):
		return "canceled", http.StatusServiceUnavailable
	case errors.Is(err, crerr.ErrBodyTooLarge):
		return "body_too_large", http.StatusRequestEntityTooLarge
	case errors.Is(err, crerr.ErrStreamCorrupt):
		return "stream_corrupt", http.StatusBadRequest
	case errors.Is(err, crerr.ErrNonFiniteData):
		return "non_finite_data", http.StatusBadRequest
	case errors.Is(err, crerr.ErrInvalidBuffer):
		return "invalid_buffer", http.StatusBadRequest
	case errors.Is(err, crerr.ErrModelDegenerate):
		return "model_degenerate", http.StatusInternalServerError
	default:
		return "internal", http.StatusInternalServerError
	}
}

// decodeBody decodes a JSON request body under the size cap and returns
// the bytes it read, which a fleet node forwards verbatim. Three contract
// points, each with its own failure class:
//
//   - A body over MaxBodyBytes is ErrBodyTooLarge (413): the client must
//     shrink the payload, not fix its syntax — so the size-cap error is
//     never folded into the generic 400. A syntax error the decoder meets
//     before the cap is still a 400.
//   - Unknown fields are rejected: a misspelled field would otherwise
//     silently zero a parameter (an eps typo becoming eps=0).
//   - Trailing data after the JSON document is rejected: a concatenated
//     second document would otherwise be silently ignored.
//
// Every body is read once into one buffer (readBody), which is also the
// copy a fleet node forwards. An estimate body read to its end goes to the
// fast path (jsonfast.go). When the fast path declines, for any other
// request type, or when the read ends early — over the cap, or short of
// the declared length — decodeJSON runs over the same bytes followed by
// the read's error, so it answers exactly as it would over the stream.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) ([]byte, error) {
	n := s.cfg.MaxBodyBytes
	if r.ContentLength > 0 && r.ContentLength < n {
		n = r.ContentLength
	}
	buf, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), n)
	if er, ok := dst.(*EstimateRequest); ok && err == nil && er.decodeFast(buf) {
		return buf, nil
	}
	var src io.Reader = bytes.NewReader(buf)
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	if err := decodeJSON(src, dst); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeJSON is the reference decoder: one JSON document with no unknown
// fields and nothing after it but whitespace.
func decodeJSON(src io.Reader, dst any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return classifyBodyError(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after JSON document")
		}
		return classifyBodyError(err)
	}
	return nil
}

// classifyBodyError types a body-read failure: the MaxBytesReader cap
// maps to ErrBodyTooLarge, everything else to ErrInvalidBuffer.
func classifyBodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("%w: body exceeds %d bytes", crerr.ErrBodyTooLarge, mbe.Limit)
	}
	return fmt.Errorf("%w: body: %v", crerr.ErrInvalidBuffer, err)
}

// count classifies one answered request by its status: 2xx is served,
// 4xx a client-caused failure and 5xx a server-caused one — kept apart so
// malformed-input load does not inflate the server failure rate.
func (s *Server) count(status int) {
	switch {
	case status >= 500:
		s.serverErrors.Add(1)
		s.m.serverErrors.Inc()
	case status >= 400:
		s.clientErrors.Add(1)
		s.m.clientErrors.Inc()
	case status >= 200 && status < 300:
		s.served.Add(1)
		s.m.served.Inc()
	}
}

// respond writes a 200 answer and counts the request served.
func (s *Server) respond(w http.ResponseWriter, body any) {
	s.count(http.StatusOK)
	s.writeJSON(w, http.StatusOK, body)
}

// failRequest writes a classified error response and counts it; a 504
// also counts as a timeout.
func (s *Server) failRequest(w http.ResponseWriter, err error) {
	kind, status := classify(err)
	if status == http.StatusGatewayTimeout {
		s.timeouts.Add(1)
		s.m.timeouts.Inc()
	}
	s.count(status)
	if status == http.StatusServiceUnavailable {
		s.setRetryAfter(w)
	}
	s.writeError(w, status, kind, err)
}

// writeShed writes the 503 shedding response with its Retry-After hint.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	kind, status := classify(err)
	s.setRetryAfter(w)
	s.writeError(w, status, kind, err)
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(s.cfg.RetryAfter)))
}

// retryAfterSecs renders a backoff as Retry-After's integral seconds,
// rounded up and never 0.
func retryAfterSecs(d time.Duration) int {
	secs := int(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	return secs
}

func (s *Server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	s.writeJSON(w, status, map[string]WireError{"error": {Kind: kind, Message: err.Error()}})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.cfg.Logger.Warn("write response", "err", err)
	}
}
