#!/usr/bin/env bash
# Runs one workload of the repository's benchmark:
#
#   bash perfbench/run.sh --workload scan-crawl|serve-fresh|serve-retrain \
#        --seed N --seconds S --trace 0|1
#
# It builds cats and catsserve from the source tree it sits in, builds
# the benchmark, and runs it. Everything it builds or writes stays under
# .bench_build/ at the root of the tree. The last line of its standard
# output is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"

workload="" trace=0
args=("$@")
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | -workload) workload="${2:-}"; shift ;;
	--trace | -trace) trace="${2:-}"; shift ;;
	esac
	shift
done
case "$workload" in
scan-crawl | serve-fresh | serve-retrain) ;;
*) echo "run.sh: unknown workload '$workload'" >&2; exit 2 ;;
esac

# Keep the toolchain's caches inside the tree and off the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
mkdir -p "$build/bin" "$build/tmp"

(cd "$root" && go build -o "$build/bin/" ./cmd/cats ./cmd/catsserve) >&2
(cd "$here" && go build -o "$build/bin/perfbench-bench" ./cmd/bench) >&2
extra=()
if [ "$trace" = 1 ]; then
	(cd "$here" && go build -o "$build/bin/perfbench-trace" ./cmd/trace) >&2
	extra=(-tracer "$build/bin/perfbench-trace")
fi

work="$build/work/$workload"
rm -rf "$work"
mkdir -p "$work"
status=0
"$build/bin/perfbench-bench" -bin "$build/bin" -work "$work" "${extra[@]}" "${args[@]}" || status=$?
# The generated request bodies are large; the rest of the run's files
# stay for inspection.
rm -f "$work"/*.bodies
exit "$status"
