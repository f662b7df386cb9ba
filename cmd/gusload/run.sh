#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Runs gusload from the module root
# with the Go build cache inside the checkout (.bench_build/), so a run
# reads and writes nothing outside it; the first run in a fresh checkout
# therefore compiles the standard library too.
set -euo pipefail
cd "$(dirname "$0")/../.."
export GOCACHE="$PWD/.bench_build/gocache"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
exec go run ./cmd/gusload "$@"
