#!/usr/bin/env bash
# Builds ftserved and the ftperf harness from this checkout, then runs one
# benchmark. Run it from the repository root:
#
#   bash cmd/ftperf/run.sh --workload cold-sparse --seed 1 --seconds 25 --trace 0
#
# Binaries and the Go build cache go to .bench_build/ in the root, so a run
# reads and writes nothing outside the checkout. The first run compiles
# everything; later runs reuse the cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ftserved" ] || [ ! -f "$root/cmd/ftperf/go.mod" ]; then
	echo "run.sh: run from the root of an ftclust checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/ftserved" ./cmd/ftserved
(cd cmd/ftperf && go build -o "$out/ftperf" .)
exec "$out/ftperf" -server "$out/ftserved" "$@"
