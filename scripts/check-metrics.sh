#!/bin/sh
# check-metrics.sh — end-to-end observability gate: trains a small model,
# serves it, drives a two-probe ε search (one buffer at two bounds, so
# the second request must hit the feature cache) and one small CRBS
# stream through the HTTP API, then runs `crest metricscheck` against
# GET /metrics. Fails when the endpoint is unreachable, returns malformed
# JSON, or is missing any expected series (per-endpoint latency
# histograms, the stream one included, per-predictor timings, cache
# counters, occupancy gauges, snapshot-load latency), or when the live
# server never served dataset features from its cache.
#
# The registry phase re-serves the same snapshot through a model registry
# (`serve -registry`) and verifies the lifecycle series on top
# (`metricscheck -registry`): registry_*/tenant_* counters, the lineage
# gauge and the canary decision histogram.
#
# The capacity phase serves with `-capacity-window` so the server samples
# its own throughput-vs-inflight curve online, then verifies the
# capacity_* series (`metricscheck -capacity`). Run one phase alone by
# naming it:
#
#   ./scripts/check-metrics.sh single      # fixed-model server only
#   ./scripts/check-metrics.sh registry    # registry-mode server only
#   ./scripts/check-metrics.sh capacity    # capacity-window server only
set -eu

MODE="${1:-all}"

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/crest" ./cmd/crest

"$WORK/crest" train -dataset hurricane -nz 12 -ny 64 -nx 64 -dir "$WORK/models"

# wait_addr <file>: block until the server publishes its bound address.
wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "check-metrics: server never published its address" >&2
            exit 1
        fi
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "check-metrics: server exited before listening" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# post_stream <url>: one 2-slice CRBS stream, so every phase populates the
# stream latency series.
post_stream() {
    "$WORK/crest" stream gen -nz 2 -ny 64 -nx 64 | "$WORK/crest" stream post -url "$1" -file -
}

stop_serve() {
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}

if [ "$MODE" = "all" ] || [ "$MODE" = "single" ]; then
    "$WORK/crest" serve -model-dir "$WORK/models" \
        -addr localhost:0 -addr-file "$WORK/addr" -pprof &
    SERVE_PID=$!
    wait_addr "$WORK/addr"
    URL="http://$(cat "$WORK/addr")"

    # A two-probe ε search populates the predictor, cache and endpoint
    # series; the second probe must hit the first one's dataset features.
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 3
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 3 -eps 1e-2
    post_stream "$URL"

    "$WORK/crest" metricscheck -url "$URL"
    stop_serve
    echo "check-metrics: single-model ok"
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "registry" ]; then
    # The registry adopts the trained snapshot as lineage "default" v1.
    mkdir -p "$WORK/registry"
    cp -r "$WORK/models" "$WORK/registry/default"

    "$WORK/crest" serve -registry "$WORK/registry" \
        -quota "smoke=0.1:1,*=1000" \
        -addr localhost:0 -addr-file "$WORK/addr-registry" &
    SERVE_PID=$!
    wait_addr "$WORK/addr-registry"
    URL="http://$(cat "$WORK/addr-registry")"

    # Routed estimates move registry_requests_total/tenant_requests_total;
    # the second probe of the ε search hits the feature cache; `crest
    # models list` proves the admin surface is up.
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 3
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 3 -eps 1e-2
    "$WORK/crest" models list -url "$URL"
    post_stream "$URL"

    "$WORK/crest" metricscheck -url "$URL" -registry
    stop_serve
    echo "check-metrics: registry ok"
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "capacity" ]; then
    "$WORK/crest" serve -model-dir "$WORK/models" \
        -capacity-window 25ms \
        -addr localhost:0 -addr-file "$WORK/addr-capacity" &
    SERVE_PID=$!
    wait_addr "$WORK/addr-capacity"
    URL="http://$(cat "$WORK/addr-capacity")"

    # A burst of estimates gives the online sampler busy ticks to pair
    # served-counter deltas with inflight levels.
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 3
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 3 -eps 1e-2
    "$WORK/crest" client -url "$URL" -dataset hurricane -nz 12 -ny 64 -nx 64 -step 2
    post_stream "$URL"
    sleep 0.2

    "$WORK/crest" metricscheck -url "$URL" -capacity
    stop_serve
    echo "check-metrics: capacity ok"
fi

echo "check-metrics: ok"
