#!/usr/bin/env bash
# Builds cmd/trngd and the benchmark from source into .bench_build/ and
# runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload drbg-sparse --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (the
# Go build cache included), so the run touches nothing outside the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/trngd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/trngd and e2ebench/ are required)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/trngd" ./cmd/trngd
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -trngd "$build/trngd" -out "$build" "$@"
