package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	crest "github.com/crestlab/crest"
	"github.com/crestlab/crest/internal/cluster"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/registry"
	"github.com/crestlab/crest/internal/server"
)

// cmdServe loads a model snapshot and serves the estimation API until the
// context is canceled (SIGINT/SIGTERM), then drains gracefully: readiness
// is withdrawn, inflight requests finish, listeners close, and only then
// does the process exit. A corrupt or unreadable snapshot is a typed
// startup error — never a panic — and a corrupt newest snapshot in
// -model-dir falls back to the previous valid one.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "", "snapshot file to serve")
	modelDir := fs.String("model-dir", "", "snapshot directory: serve the newest valid snapshot")
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	workers := fs.Int("workers", 0, "estimation workers (0: GOMAXPROCS)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing requests (0: worker count)")
	maxQueue := fs.Int("max-queue", 0, "max queued requests before shedding (0: 4x inflight)")
	reqTimeout := fs.Duration("timeout", 30*time.Second, "per-request deadline (negative: none)")
	retryAfter := fs.Duration("retry-after", time.Second, "backoff hint advertised on 503 responses")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for inflight requests at shutdown")
	pprof := fs.Bool("pprof", false, "mount the Go profiler under /debug/pprof/")
	slowReq := fs.Duration("slow-request", time.Second, "log requests slower than this with their request ID (negative: never)")
	capacityWindow := fs.Duration("capacity-window", 0, "online capacity sampling interval: pair served-counter deltas with the inflight gauge into an X(N) curve exposed at /statsz (0: off)")
	recal := fs.Bool("recalibrate", false, "enable online conformal recalibration from POST /v1/feedback observations")
	recalWindow := fs.Int("recal-window", 512, "rolling observation window for recalibration")
	recalBand := fs.Float64("recal-band", 0.03, "coverage band half-width around the conformal target")
	peers := fs.String("peers", "", "comma-separated replica base URLs (including this node); empty: single-node")
	self := fs.String("self", "", "this node's base URL as it appears in -peers (default http://<addr>)")
	replicas := fs.Int("replicas", 2, "owner replica-set size per routing key")
	forwardDepth := fs.Int("forward-depth", 1, "max forwarding hops before a request is served locally")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed backup-request delay (0: adaptive p90 of recent forwards; negative: no hedging)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive forward failures that open a peer's circuit breaker")
	breakerOpenFor := fs.Duration("breaker-open-for", 2*time.Second, "how long an open breaker rejects a peer before half-open probing")
	registryDir := fs.String("registry", "", "serve from a model registry root (each subdirectory is one lineage); mutually exclusive with -model/-model-dir/-peers/-recalibrate/-recal-window/-recal-band")
	keep := fs.Int("keep", 0, "per-lineage snapshot retention budget (registry mode; 0: default, negative: keep all)")
	quota := fs.String("quota", "", `per-tenant admission quotas "name=rate[:burst],..." in req/s (registry mode; entry "*=..." bounds unlisted tenants)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 0
	for _, set := range []bool{*model != "", *modelDir != "", *registryDir != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("need exactly one of -model, -model-dir or -registry")
	}
	if *registryDir != "" && *peers != "" {
		return errors.New("-registry and -peers are mutually exclusive")
	}
	// Each lineage carries its own recalibration state, so -recalibrate
	// would be silently ignored under -registry.
	if *registryDir != "" && *recal {
		return errors.New("-registry and -recalibrate are mutually exclusive")
	}
	if err := checkModeFlags(fs, map[string]bool{
		"registry": *registryDir != "", "peers": *peers != "", "recalibrate": *recal,
	}); err != nil {
		return err
	}

	var est *crest.Estimator
	var reg *registry.Registry
	var err error
	if *registryDir != "" {
		qcfg, qerr := parseQuotaSpec(*quota)
		if qerr != nil {
			return qerr
		}
		reg, err = registry.Open(registry.Config{
			Root:    *registryDir,
			Workers: *workers,
			Keep:    *keep,
			Quota:   qcfg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "crest serve: registry: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("open registry: %w", err)
		}
		defer reg.Close()
		fmt.Fprintf(os.Stderr, "crest serve: registry %s hosting lineages %v\n", *registryDir, reg.Lineages())
	} else {
		var from string
		if *model != "" {
			from = *model
			est, err = crest.LoadEstimator(*model)
		} else {
			est, from, err = crest.LoadLatestEstimator(*modelDir)
		}
		if err != nil {
			return fmt.Errorf("load model: %w", err)
		}
		fmt.Fprintf(os.Stderr, "crest serve: model %s (conformal radius %.4f)\n", from, est.IntervalRadius())
		if *recal {
			if est.OnlineRecalibrationEnabled() {
				// The snapshot carried a live tracker; resume its window and
				// recalibrated radius rather than resetting to the flags.
				ost, _ := est.OnlineStats()
				fmt.Fprintf(os.Stderr, "crest serve: online recalibration resumed from snapshot (observed %d, windowed %d, radius %.4f)\n",
					ost.Observed, ost.Windowed, ost.Radius)
			} else {
				est.EnableOnlineRecalibration(crest.OnlineConformalConfig{Window: *recalWindow, Band: *recalBand})
				fmt.Fprintf(os.Stderr, "crest serve: online recalibration on (window %d, band ±%.3f)\n", *recalWindow, *recalBand)
			}
		}
	}

	// The listener binds before the cluster layer so -self can default to
	// the actually-bound address (port 0 picks a free port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()

	var cl *cluster.Cluster
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		selfURL := *self
		if selfURL == "" {
			selfURL = "http://" + bound
		}
		cl, err = cluster.New(cluster.Config{
			Self:            selfURL,
			Peers:           list,
			Replicas:        *replicas,
			MaxForwardDepth: *forwardDepth,
			HedgeAfter:      *hedgeAfter,
			Breaker: cluster.BreakerConfig{
				FailureThreshold: *breakerThreshold,
				OpenFor:          *breakerOpenFor,
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "crest serve: cluster: "+format+"\n", args...)
			},
		})
		if err != nil {
			ln.Close()
			return fmt.Errorf("cluster: %w", err)
		}
		cl.Start()
		defer cl.Close()
		fmt.Fprintf(os.Stderr, "crest serve: clustered as %s across %d peers (replicas %d)\n",
			selfURL, len(list), *replicas)
	}

	var engine *crest.BatchEstimator
	if est != nil {
		engine = crest.NewBatchEstimator(est, nil, *workers)
	}
	srv, err := server.New(server.Config{
		Engine:         engine,
		Registry:       reg,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTimeout,
		RetryAfter:     *retryAfter,
		EnablePprof:    *pprof,
		SlowRequest:    *slowReq,
		CapacityWindow: *capacityWindow,
		Cluster:        cl,
		Logger:         obs.NewLogger(os.Stderr),
	})
	if err != nil {
		ln.Close()
		return err
	}

	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	if *capacityWindow > 0 {
		fmt.Fprintf(os.Stderr, "crest serve: online capacity sampling every %s\n", *capacityWindow)
	}
	fmt.Fprintf(os.Stderr, "crest serve: listening on %s\n", bound)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (readiness flips inside Drain), let
	// inflight work finish, then close the listener and connections.
	fmt.Fprintf(os.Stderr, "crest serve: draining (up to %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "crest serve: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "crest serve: drained; served %d, shed %d, failed %d\n",
		st.Served, st.Shed, st.Failed)
	return nil
}

// modeFlags maps each serve flag that only one mode reads to the flag
// that turns the mode on.
var modeFlags = map[string]string{
	"quota":             "registry",
	"keep":              "registry",
	"self":              "peers",
	"replicas":          "peers",
	"forward-depth":     "peers",
	"hedge-after":       "peers",
	"breaker-threshold": "peers",
	"breaker-open-for":  "peers",
	"recal-window":      "recalibrate",
	"recal-band":        "recalibrate",
}

// checkModeFlags refuses a flag set for a mode that is off, which serve
// would otherwise ignore without a word. Visit sees a flag set explicitly
// even to its default, and walks the flags in lexical order, so the error
// names the same flag every time.
func checkModeFlags(fs *flag.FlagSet, on map[string]bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if mode, ok := modeFlags[f.Name]; ok && !on[mode] && err == nil {
			err = fmt.Errorf("-%s needs -%s", f.Name, mode)
		}
	})
	return err
}
