#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload scale|paper|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all [flags]   # the three workloads, one process each
#
# Everything the build and the run write (Go build cache, binary, serve's
# disk tiers, span files) goes under .bench_build at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# The benchmark module resolves caft from the parent directory; outside a
# caft checkout the build fails and no result is printed.
(cd "$here" && go build -o "$out/perfbench" .)

cd "$root"
if [[ " $* " == *" --workload all "* ]]; then
  args=()
  skip=0
  for a in "$@"; do
    if ((skip)); then skip=0; continue; fi
    if [[ "$a" == "--workload" ]]; then skip=1; continue; fi
    args+=("$a")
  done
  for w in scale paper serve; do
    "$out/perfbench" --workload "$w" "${args[@]}"
  done
else
  exec "$out/perfbench" "$@"
fi
