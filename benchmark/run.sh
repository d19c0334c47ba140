#!/usr/bin/env bash
# End-to-end paper-scenario benchmark.
#
#   bash benchmark/run.sh
#       Build, then run every workload once with the default seed and
#       print every metric.
#   bash benchmark/run.sh --list
#       Build, then print the workload names.
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       Build, then run one workload. The last stdout line is one JSON
#       object: {"correct", "attempted", "failed", "metrics"}. With
#       --trace 1 the metrics are the per-layer ones and a Chrome trace
#       is written to build-benchmark/trace-NAME.json. --seconds is how
#       BENCHMARK.json's run_seconds reaches the run; leave it out to use
#       the same value, which is bench_e2e's default.
#
# Builds bench_e2e from benchmark/ and ../src into build-benchmark/ at the
# root of the checkout (Release). The process runs single-threaded with
# BLITZ_SHARDS unset, pinned to one core when taskset is available. Exits
# non-zero when the build fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --parallel "$jobs" >&2

unset BLITZ_SHARDS BLITZ_SWEEP_THREADS

# Pin to the last core this process may run on.
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpus=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status 2>/dev/null || true)
    cpu=${cpus##*,}
    cpu=${cpu##*-}
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi
bench=("${pin[@]}" "$build/bench_e2e")

if [ $# -eq 0 ]; then
    status=0
    for workload in $("$build/bench_e2e" --list); do
        "${bench[@]}" --workload "$workload" || status=1
        echo
    done
    [ "$status" -eq 0 ] && echo "all workloads passed their checks" ||
        echo "some workload FAILED its checks"
    exit "$status"
fi

args=()
workload=""
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
    --workload | --seed | --seconds)
        [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
        [ "$1" = --workload ] && workload=$2
        args+=("$1" "$2")
        shift 2
        ;;
    --list) exec "$build/bench_e2e" --list ;;
    --trace)
        [ $# -ge 2 ] || { echo "run.sh: --trace needs 0 or 1" >&2; exit 2; }
        trace=$2
        shift 2
        ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
done
case "$trace" in
0) ;;
1) args+=("--trace=$build/trace-${workload:-all}.json") ;;
*) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac
exec "${bench[@]}" "${args[@]}"
