#!/usr/bin/env bash
# Builds rpbench from source and runs it with the arguments given. Run it
# from the root of a checkout:
#
#   bash bench/run.sh --workload solve-hit --seed 1 --seconds 10 --trace 0
#
# The binary and Go's build cache, module cache and telemetry files all
# go under .bench_build/ in the working directory, so a run writes
# nothing outside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/rpbench" ./rpbench)
exec "$build/rpbench" "$@"
