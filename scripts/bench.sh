#!/bin/sh
# bench.sh — serving-layer benchmark: drives `crest servebench` to
# saturation and archives the JSON report (p50/p99 latency of served
# requests plus the shed rate) as BENCH_server.json, then runs a batch
# workload and archives its observability summary (per-predictor p50/p99
# latency plus the feature-cache hit rate) as BENCH_obs.json.
#
# Tune the operating point via env vars:
#
#   BENCH_N=2000 BENCH_CONCURRENCY=64 ./scripts/bench.sh
#
# The reports are self-describing; see serveBenchReport in
# cmd/crest/servebench.go and writeObsSummary in
# cmd/crest/metricscheck.go for the schemas.
#
# A third phase benchmarks the fused predictor kernels (`crest predbench`)
# and archives p50/p90 ComputeDataset latency plus allocs/op as
# BENCH_predictors.json; it *asserts* that the fresh p50 has not
# regressed by more than BENCH_PRED_MAX_REGRESSION (default 1.3) times
# the committed baseline's p50, when a comparable committed report
# exists. A fourth phase benchmarks streaming ingest
# (`crest streambench`) as BENCH_stream.json and *asserts* the O(block)
# working-memory claim: allocations per slice must stay flat as the
# stream grows (alloc_growth_ratio <= BENCH_STREAM_MAX_GROWTH, default
# 1.25). Run one phase alone by naming it:
#
#   ./scripts/bench.sh predictors     # kernel phase only (a CI smoke step)
#   ./scripts/bench.sh stream         # streaming-ingest phase only (a CI smoke step)
#   ./scripts/bench.sh server         # serving + observability phases only
#   ./scripts/bench.sh cluster        # replicated-fleet phase only (a CI smoke step)
#   ./scripts/bench.sh registry       # model-lifecycle phase only (a CI smoke step)
#   ./scripts/bench.sh capacity       # USL capacity-planning phase only (a CI smoke step)
#
# The registry phase (`crest registrybench`) drives a full canary cycle —
# publish, promote on a winning candidate, roll back a regressed one —
# and archives routing/feedback latency plus quota-check overhead as
# BENCH_registry.json; it *asserts* the route hot path stays under
# BENCH_REGISTRY_MAX_ROUTE_US (default 1000us).
#
# The cluster phase (`crest clusterbench`) boots an in-process 3-node
# fleet, slows one replica, and archives the hedged tail latency as
# BENCH_cluster.json; it *asserts* that the hedged p99 stays below the
# injected slow-replica delay (hedging bounds the tail).
#
# The capacity phase (`crest capacity -synthetic`) fits the Universal
# Scalability Law to a deterministic synthetic sweep with known
# contention/coherence and archives the fit as BENCH_capacity.json; it
# *asserts* that the forecast peak N* lands inside the swept range and
# that sigma and kappa are recovered within BENCH_CAPACITY_MAX_RELERR
# (default 0.10) relative error.
set -eu

MODE="${1:-all}"

OUT="${BENCH_OUT:-BENCH_server.json}"
OBS_OUT="${BENCH_OBS_OUT:-BENCH_obs.json}"
N="${BENCH_N:-800}"
CONCURRENCY="${BENCH_CONCURRENCY:-32}"
MAX_INFLIGHT="${BENCH_MAX_INFLIGHT:-4}"
MAX_QUEUE="${BENCH_MAX_QUEUE:-8}"
WORK_DELAY="${BENCH_WORK_DELAY:-2ms}"
PRED_OUT="${BENCH_PRED_OUT:-BENCH_predictors.json}"
PRED_EDGE="${BENCH_PRED_EDGE:-512}"
PRED_ITERS="${BENCH_PRED_ITERS:-10}"
PRED_MAX_REGRESSION="${BENCH_PRED_MAX_REGRESSION:-1.3}"
STREAM_OUT="${BENCH_STREAM_OUT:-BENCH_stream.json}"
STREAM_EDGE="${BENCH_STREAM_EDGE:-256}"
STREAM_SLICES="${BENCH_STREAM_SLICES:-2,8,32}"
STREAM_MAX_GROWTH="${BENCH_STREAM_MAX_GROWTH:-1.25}"
CLUSTER_OUT="${BENCH_CLUSTER_OUT:-BENCH_cluster.json}"
CLUSTER_N="${BENCH_CLUSTER_N:-120}"
CLUSTER_NODES="${BENCH_CLUSTER_NODES:-3}"
CLUSTER_HEDGE_AFTER="${BENCH_CLUSTER_HEDGE_AFTER:-20ms}"
CLUSTER_SLOW_DELAY="${BENCH_CLUSTER_SLOW_DELAY:-250ms}"
REGISTRY_OUT="${BENCH_REGISTRY_OUT:-BENCH_registry.json}"
CAPACITY_OUT="${BENCH_CAPACITY_OUT:-BENCH_capacity.json}"
CAPACITY_LEVELS="${BENCH_CAPACITY_LEVELS:-1,2,4,8,16,32,64}"
CAPACITY_MAX_RELERR="${BENCH_CAPACITY_MAX_RELERR:-0.10}"
REGISTRY_ROUTES="${BENCH_REGISTRY_ROUTES:-20000}"
REGISTRY_MAX_ROUTE_US="${BENCH_REGISTRY_MAX_ROUTE_US:-1000}"

if [ "$MODE" = "all" ] || [ "$MODE" = "server" ]; then
    go run ./cmd/crest servebench \
        -n "$N" \
        -concurrency "$CONCURRENCY" \
        -max-inflight "$MAX_INFLIGHT" \
        -max-queue "$MAX_QUEUE" \
        -work-delay "$WORK_DELAY" \
        -out "$OUT"

    echo "bench: wrote $OUT"

    # Observability phase: a repeated batch run warms the feature cache and
    # populates the per-predictor latency histograms on the registry.
    go run ./cmd/crest batch \
        -dataset hurricane -nz 12 -ny 64 -nx 64 \
        -eps 1e-2,1e-3 -repeat 2 -quiet \
        -obs-out "$OBS_OUT"

    echo "bench: wrote $OBS_OUT"
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "predictors" ]; then
    # Capture the committed baseline's p50 BEFORE the fresh run overwrites
    # the report. The gate only fires when the committed report covers the
    # same operating point (edge), so a sweep at another size does not
    # compare apples to oranges.
    base_p50=""
    if [ -f "$PRED_OUT" ]; then
        base_edge=$(sed -n 's/.*"edge": \([0-9]*\).*/\1/p' "$PRED_OUT")
        if [ "$base_edge" = "$PRED_EDGE" ]; then
            base_p50=$(sed -n 's/.*"p50_seconds": \([0-9.eE+-]*\).*/\1/p' "$PRED_OUT")
        fi
    fi

    go run ./cmd/crest predbench \
        -edge "$PRED_EDGE" \
        -iters "$PRED_ITERS" \
        -out "$PRED_OUT"

    # Kernel-regression assertion: the fresh p50 must stay within
    # PRED_MAX_REGRESSION x the committed baseline. A jump past that bound
    # means a fused-kernel or scratch-pool change slowed the hot path.
    if [ -n "$base_p50" ]; then
        new_p50=$(sed -n 's/.*"p50_seconds": \([0-9.eE+-]*\).*/\1/p' "$PRED_OUT")
        if [ -z "$new_p50" ]; then
            echo "bench: FAIL: no p50_seconds in $PRED_OUT" >&2
            exit 1
        fi
        if ! awk -v n="$new_p50" -v b="$base_p50" -v max="$PRED_MAX_REGRESSION" \
                'BEGIN { exit !(n <= b * max) }'; then
            echo "bench: FAIL: predictor p50 ${new_p50}s regressed past ${PRED_MAX_REGRESSION}x baseline ${base_p50}s" >&2
            exit 1
        fi
        echo "bench: wrote $PRED_OUT (p50 ${new_p50}s <= ${PRED_MAX_REGRESSION}x baseline ${base_p50}s)"
    else
        echo "bench: wrote $PRED_OUT (no comparable committed baseline; regression gate skipped)"
    fi
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "stream" ]; then
    go run ./cmd/crest streambench \
        -ny "$STREAM_EDGE" \
        -nx "$STREAM_EDGE" \
        -slices "$STREAM_SLICES" \
        -out "$STREAM_OUT"

    # O(block) working-memory assertion: per-slice allocations must not
    # grow with the stream length. The featurizer and kernel scratch are
    # reused across slices, so allocs/slice at the longest stream should
    # match the shortest; a drifting ratio means per-slice state is
    # leaking into per-stream state.
    growth=$(sed -n 's/.*"alloc_growth_ratio": \([0-9.eE+-]*\).*/\1/p' "$STREAM_OUT")
    if [ -z "$growth" ]; then
        echo "bench: FAIL: no alloc_growth_ratio in $STREAM_OUT" >&2
        exit 1
    fi
    if ! awk -v g="$growth" -v max="$STREAM_MAX_GROWTH" 'BEGIN { exit !(g <= max) }'; then
        echo "bench: FAIL: alloc growth ratio $growth exceeds $STREAM_MAX_GROWTH (streaming memory is not O(block))" >&2
        exit 1
    fi
    echo "bench: wrote $STREAM_OUT (alloc growth x$growth <= $STREAM_MAX_GROWTH)"
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "cluster" ]; then
    go run ./cmd/crest clusterbench \
        -nodes "$CLUSTER_NODES" \
        -n "$CLUSTER_N" \
        -hedge-after "$CLUSTER_HEDGE_AFTER" \
        -slow-delay "$CLUSTER_SLOW_DELAY" \
        -out "$CLUSTER_OUT"

    # Tail-bound assertion: with one replica slowed, the hedged p99 must
    # land below the injected delay — the request raced a backup replica
    # instead of waiting out the slow one.
    hedged=$(sed -n 's/.*"hedged_p99_ms": \([0-9.eE+-]*\).*/\1/p' "$CLUSTER_OUT")
    slow=$(sed -n 's/.*"slow_delay_ms": \([0-9.eE+-]*\).*/\1/p' "$CLUSTER_OUT")
    if [ -z "$hedged" ] || [ -z "$slow" ]; then
        echo "bench: FAIL: missing hedged_p99_ms/slow_delay_ms in $CLUSTER_OUT" >&2
        exit 1
    fi
    if ! awk -v h="$hedged" -v s="$slow" 'BEGIN { exit !(h < s) }'; then
        echo "bench: FAIL: hedged p99 ${hedged}ms did not beat the ${slow}ms slow replica" >&2
        exit 1
    fi
    echo "bench: wrote $CLUSTER_OUT (hedged p99 ${hedged}ms < slow ${slow}ms)"
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "registry" ]; then
    go run ./cmd/crest registrybench \
        -routes "$REGISTRY_ROUTES" \
        -out "$REGISTRY_OUT"

    # Decision-latency assertion: the canary controller must reach both a
    # promote and a rollback verdict (registrybench itself fails if either
    # verdict is wrong), and the routing hot path must stay cheap — a p99
    # above 1ms means lineage routing grew a lock convoy or an allocation.
    route_p99=$(sed -n 's/.*"route_p99_us": \([0-9.eE+-]*\).*/\1/p' "$REGISTRY_OUT")
    if [ -z "$route_p99" ]; then
        echo "bench: FAIL: no route_p99_us in $REGISTRY_OUT" >&2
        exit 1
    fi
    if ! awk -v r="$route_p99" -v max="$REGISTRY_MAX_ROUTE_US" 'BEGIN { exit !(r <= max) }'; then
        echo "bench: FAIL: route p99 ${route_p99}us exceeds ${REGISTRY_MAX_ROUTE_US}us" >&2
        exit 1
    fi
    echo "bench: wrote $REGISTRY_OUT (route p99 ${route_p99}us <= ${REGISTRY_MAX_ROUTE_US}us)"
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "capacity" ]; then
    go run ./cmd/crest capacity \
        -synthetic \
        -levels "$CAPACITY_LEVELS" \
        -out "$CAPACITY_OUT"

    # Fit-sanity assertions: the USL fit over the synthetic workload must
    # put the saturation peak inside the swept concurrency range and
    # recover the generating contention/coherence parameters. A peak
    # outside the range or a drifting parameter means the least-squares
    # fit (or its constraint back-off) regressed.
    in_range=$(sed -n 's/.*"peak_in_range": \([a-z]*\).*/\1/p' "$CAPACITY_OUT")
    sigma_err=$(sed -n 's/.*"sigma_rel_err": \([0-9.eE+-]*\).*/\1/p' "$CAPACITY_OUT")
    kappa_err=$(sed -n 's/.*"kappa_rel_err": \([0-9.eE+-]*\).*/\1/p' "$CAPACITY_OUT")
    if [ -z "$in_range" ] || [ -z "$sigma_err" ] || [ -z "$kappa_err" ]; then
        echo "bench: FAIL: missing peak_in_range/sigma_rel_err/kappa_rel_err in $CAPACITY_OUT" >&2
        exit 1
    fi
    if [ "$in_range" != "true" ]; then
        echo "bench: FAIL: forecast peak N* fell outside the swept range (peak_in_range=$in_range)" >&2
        exit 1
    fi
    if ! awk -v s="$sigma_err" -v k="$kappa_err" -v max="$CAPACITY_MAX_RELERR" \
            'BEGIN { exit !(s <= max && k <= max) }'; then
        echo "bench: FAIL: USL fit error sigma=$sigma_err kappa=$kappa_err exceeds $CAPACITY_MAX_RELERR" >&2
        exit 1
    fi
    echo "bench: wrote $CAPACITY_OUT (peak in range; sigma err $sigma_err, kappa err $kappa_err <= $CAPACITY_MAX_RELERR)"
fi
