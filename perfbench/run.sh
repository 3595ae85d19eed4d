#!/usr/bin/env bash
# Builds the benchmark and its server under test from the enclosing
# checkout, then runs one benchmark run from the checkout root:
#
#   bash perfbench/run.sh --workload bulk-dense --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ] || [ ! -d "$root/grammars" ]; then
  echo "perfbench: $root holds no cfgtag module to build and measure" >&2
  exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/bin/" ./cmd/perfbench ./cmd/sut)

cd "$root"
exec "$out/bin/perfbench" -sut "$out/bin/sut" -out "$out" "$@"
