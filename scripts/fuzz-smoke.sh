#!/bin/sh
# fuzz-smoke.sh — short-budget pass over every fuzz target in the repo.
#
# Each target runs under `go test -fuzz` for FUZZTIME (default 5s), which
# is enough to exercise the mutator against the seed corpus and shake out
# shallow panics without tying up CI. Run a single package longer with,
# e.g.:
#
#   FUZZTIME=60s ./scripts/fuzz-smoke.sh ./internal/huffman
#
# Targets covered by default:
#   internal/huffman    FuzzDecode, FuzzRoundTrip    (canonical Huffman codec)
#   internal/usecases   FuzzUnmarshalAggFile         (aggregated-file parser)
#   internal/featcache  FuzzKeyDerivation            (content-key derivation)
#   internal/compressors  FuzzDecompress*            (all decoder hardening targets)
#   internal/grid       FuzzBufferValidate           (public-boundary buffer validation)
#   internal/grid       FuzzChunkDecode              (CRBS block-stream decoder hardening)
#   internal/stats      FuzzQuantizeBin              (saturated quantizer bin index)
#   internal/stats      FuzzQuantizedEntropy         (dense and hashed bin counters vs the map reference)
#   internal/stats      FuzzHistogramEntropy         (histogram entropy: no panic, split and f32 invariance)
#   internal/server     FuzzDecodeRequest            (JSON fast path vs encoding/json)
#   internal/server     FuzzParseFloat               (one-pass number scan and conversion vs strconv.ParseFloat)
#   internal/linalg     FuzzPairSweepF64             (pair sweep and scalar sweep, in blocks of 1, 16 and B rows, vs full-row fold)
#   internal/linalg     FuzzFusedBlockMoments        (AVX2 second-moment update vs scalar loop vs SecondMomentLower)
#   internal/linalg     FuzzGramBlockT               (AVX2 and scalar Gram panels vs the naive loop, sentinel outside the window)
#   snapshot            FuzzSnapshotDecode           (durable-model envelope decoder)
set -eu

FUZZTIME="${FUZZTIME:-5s}"
PKGS="${*:-./internal/huffman ./internal/usecases ./internal/featcache ./internal/compressors ./internal/grid ./internal/stats ./internal/server ./internal/linalg ./snapshot}"

for pkg in $PKGS; do
    targets=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
    if [ -z "$targets" ]; then
        echo "fuzz-smoke: no fuzz targets in $pkg"
        continue
    fi
    for target in $targets; do
        echo "fuzz-smoke: $pkg $target ($FUZZTIME)"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
    done
done
echo "fuzz-smoke: all targets passed"
