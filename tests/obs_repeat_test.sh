#!/usr/bin/env bash
# Run a bench twice with --metrics --trace --health, each in its own
# temporary directory, and require identical observability output:
# stdout, every CSV and trace.json byte-identical, `blitz-top diff` clean on
# the two health.json files (it compares the deterministic sections;
# wall-clock timings differ by design), and `blitz-top summary` able
# to render one.
#
#   obs_repeat_test.sh <bench binary> <blitz-top binary>
set -euo pipefail
bench=$1
top=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for run in a b; do
    mkdir "$work/$run"
    (cd "$work/$run" && "$bench" --metrics --trace --health > stdout.txt)
done

cd "$work"
csvs=$(cd a && ls ./*.csv)
[ -n "$csvs" ] || { echo "no metrics CSV written"; exit 1; }
for f in $csvs trace.json stdout.txt; do
    cmp "a/$f" "b/$f"
done
[ "$(cd b && ls ./*.csv)" = "$csvs" ] || { echo "CSV sets differ"; exit 1; }
"$top" diff a/health.json b/health.json
"$top" summary a/health.json > /dev/null
echo "observability outputs repeat: $(echo "$csvs" | wc -l) CSVs, trace.json, health.json"
