#!/bin/sh
# Builds valoisd and the perfbench program from this checkout's sources and
# runs perfbench with the arguments given, for example:
#
#   sh perfbench/run.sh --workload wire-hash --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Binaries, the Go build cache, valoisd's
# data directories and span files all go under .bench_build/ in the
# checkout.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/valoisd ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the root of a valois checkout" >&2
    exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep every file the go command writes inside the checkout, and never
# reach for the network: the module has no dependencies to fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/valoisd" ./cmd/valoisd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -valoisd "$out/valoisd" -work "$out/run" "$@"
