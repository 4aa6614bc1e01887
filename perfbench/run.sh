#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments (see perfbench/README.md). Run it
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep everything the build and the run write inside the checkout: the
# build cache, module path, temporary files and the go command's own
# config and telemetry directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
