#!/usr/bin/env bash
# Repeatability tool for the end-to-end benchmark.
#
#   bash benchmark/repeat.sh N [--seed-from K] [--trace]
#
# Runs the full workload set N times through benchmark/run.sh, at the
# benchmark's fixed run length, forward on
# odd passes and in reverse on even ones, then prints for every workload
# and metric the median, the quartiles (Python's statistics.quantiles,
# n=4), min, max, and the spread: (q3 - q1) / median, the figure the
# bounds in BENCHMARK.json are checked against.
#
# By default every pass uses the default seed, so model_digest must be
# identical across passes (the tool reports it). --seed-from K gives pass i
# seed K+i-1 instead, as a seed sweep does. --trace repeats the traced run and
# reports the per-layer metrics. Raw outputs go to build-benchmark/repeat/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

passes=${1:-}
case "$passes" in
'' | *[!0-9]*)
    echo "usage: repeat.sh N [--seed-from K] [--trace]" >&2
    exit 2
    ;;
esac
shift
first_seed=""
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
    --seed-from)
        [ $# -ge 2 ] || { echo "repeat.sh: --seed-from needs a value" >&2; exit 2; }
        first_seed=$2
        shift 2
        ;;
    --trace) trace=1; shift ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

out="$root/build-benchmark/repeat"
mapfile -t names < <(bash "$here/run.sh" --list)
[ ${#names[@]} -gt 0 ] || { echo "repeat.sh: build failed" >&2; exit 1; }
rm -rf "$out"
mkdir -p "$out"

status=0
for pass in $(seq 1 "$passes"); do
    order=("${names[@]}")
    if [ $((pass % 2)) -eq 0 ]; then
        order=()
        for ((i = ${#names[@]} - 1; i >= 0; i--)); do order+=("${names[$i]}"); done
    fi
    seed=()
    [ -n "$first_seed" ] && seed=(--seed "$((first_seed + pass - 1))")
    for w in "${order[@]}"; do
        echo "pass $pass/$passes: $w" >&2
        bash "$here/run.sh" --workload "$w" "${seed[@]}" --trace "$trace" \
            >"$out/$pass-$w.out" 2>"$out/$pass-$w.err" ||
            { status=1; echo "  FAILED (see $out/$pass-$w.out)" >&2; }
    done
done

python3 - "$out" "$passes" "${names[@]}" <<'EOF'
import json, statistics, sys

out, passes, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
for w in names:
    runs, digests = [], set()
    for p in range(1, passes + 1):
        lines = open(f"{out}/{p}-{w}.out").read().splitlines()
        digests.update(l.split()[1] for l in lines if l.strip().startswith("model_digest"))
        if lines and lines[-1].startswith("{"):
            runs.append(json.loads(lines[-1]))
    ok = all(r["correct"] for r in runs) and len(runs) == passes
    print(f"{w}: {len(runs)} runs, checks {'passed' if ok else 'FAILED'}, "
          f"{len(digests)} distinct model_digest")
    print(f"  {'metric':30} {'median':>13} {'q1':>13} {'q3':>13} {'min':>13} {'max':>13} {'spread':>7}")
    for name in (runs[0]["metrics"] if runs else {}):
        v = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:30} {med:13.6g} {q1:13.6g} {q3:13.6g} {min(v):13.6g} "
              f"{max(v):13.6g} {spread:7.3f}  {unit}")
EOF
exit "$status"
