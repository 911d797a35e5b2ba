#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lab-replay --seed 1 --seconds 25 --trace 0
#
# Build cache, binary and span files stay in .perfbench/ at the root of the
# checkout. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.perfbench"
mkdir -p "$out"
# Everything the go command writes (build cache, module cache, telemetry
# counters under the config dir) stays inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
