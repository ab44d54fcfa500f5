#!/bin/sh
# bench.sh — re-measure the zero-alloc serving paths.
#
# The //caft:zeroalloc annotations (DESIGN.md S10) prove allocation
# freedom statically; this script is the empirical half. It first runs
# the AllocsPerRun pin tests, then the benchmarks that drive the
# pinned paths with -benchmem -count=$COUNT, and compares against the
# committed baseline with benchstat when it is installed (a built-in
# mean formatter is the fallback — the repo itself stays
# dependency-free).
#
# Usage:
#   scripts/bench.sh            # run, compare against scripts/bench-baseline.txt
#   scripts/bench.sh -update    # re-seed the baseline from this machine
#   COUNT=4 scripts/bench.sh    # fewer repetitions (default 10)
#
# Baselines are machine-specific: re-seed before comparing across a
# hardware change, and trust allocs/op (which must not drift at all)
# over ns/op.
set -eu
cd "$(dirname "$0")/.."

COUNT="${COUNT:-10}"
BASELINE="scripts/bench-baseline.txt"

# The benchmarks behind the zero-alloc claims: the replay inner loop,
# the caftd cache-hit path, and the compiled-view layers — DAG
# compilation, bounded candidate selection and dense schedule
# validation. BenchmarkServeMiss and BenchmarkCompile ride along as
# contrast columns (they allocate, and should); the Candidates/Validate
# steady states must not.
BENCH='^(BenchmarkReplay|BenchmarkServeCached|BenchmarkServeMiss|BenchmarkCompile|BenchmarkCandidates|BenchmarkValidate)$'
PKGS="./internal/sim ./internal/service ./internal/dag ./internal/sched"

echo "== alloc-pin tests" >&2
go test -run 'AllocPin|ProcsOfScratch' ./internal/sched ./internal/online ./internal/dag >&2

echo "== benchmarks (-benchmem -count=$COUNT)" >&2
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" $PKGS | tee "$tmp" >&2

if [ "${1:-}" = "-update" ]; then
	cp "$tmp" "$BASELINE"
	echo "== baseline re-seeded: $BASELINE" >&2
	exit 0
fi

if [ ! -f "$BASELINE" ]; then
	echo "== no $BASELINE; run scripts/bench.sh -update to seed it" >&2
	exit 1
fi

if command -v benchstat >/dev/null 2>&1; then
	echo "== benchstat old=baseline new=this-run"
	benchstat "$BASELINE" "$tmp"
else
	# Fallback: per-benchmark means of ns/op, B/op, allocs/op from the
	# standard "name iters ns/op B/op allocs/op" benchmark lines.
	echo "== benchstat not installed; built-in means (old = baseline, new = this run)"
	summarize() {
		awk '/^Benchmark/ {
			n[$1]++; ns[$1] += $3; b[$1] += $5; a[$1] += $7
		}
		END {
			for (k in n)
				printf "%-40s %14.1f ns/op %10.1f B/op %8.2f allocs/op\n",
					k, ns[k]/n[k], b[k]/n[k], a[k]/n[k]
		}' "$1" | sort
	}
	echo "-- old"
	summarize "$BASELINE"
	echo "-- new"
	summarize "$tmp"
fi
