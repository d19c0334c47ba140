#!/usr/bin/env bash
# List the blitz:: functions that production never reaches.
#
#   bash tools/unreached_symbols.sh [BUILD_DIR]
#   bash tools/unreached_symbols.sh --coverage [BUILD_DIR]
#
# Link mode (the default) lists the functions no production binary
# links. Coverage mode lists the linked ones no production run
# executes. Both print the list sorted, one per line, with the count on
# stderr, and keep the same names: plain blitz:: functions (template
# instantiations, lambda bodies, blitz::bench and the tests'
# blitz::testing helpers are dropped), minus the special members the
# compiler may generate (default, copy and move constructors, copy and
# move assignment), which aggregate initialisation never calls. The
# special-member filter works on the signature, so a hand-written
# default constructor is dropped too; grep for those. These are
# reports, not checks: each needs its own full build.
#
# Link mode configures its own build tree in BUILD_DIR (default:
# build-unreached/ at the root of the checkout; not a preset) at -O0
# -g0 with -ffunction-sections -fdata-sections -fkeep-inline-functions
# and -Wl,--gc-sections, tests on, and builds benchmark/'s bench_e2e
# beside it. -O0 keeps every callee out of line, -fkeep-inline-functions
# emits every inline function (a header-inline member nothing calls
# included), and --gc-sections drops each function section nothing
# reaches, so a function is "reached" exactly when its symbol survives
# into some linked binary. Candidates are the T/t/W/w symbols defined
# in the src/ and tests/ object files (W/w so header-inline members
# count). Subtracted are the symbols present in any production binary:
# bench/*, examples/*, tools/* and bench_e2e. A function on the list is
# reached only from tests: a candidate for deletion, or a test-only
# accessor.
#
# Coverage mode builds BUILD_DIR (default: build-unreached-cov/) with
# -DBLITZ_COVERAGE=ON, tests off, at -O1 -DNDEBUG: production asserts
# stay in, and gcov still charges early-inlined bodies to their own
# lines. bench_e2e is built beside it with --coverage. It then runs the
# production set, each binary in its own scratch directory, up to four
# at a time: every bench/ binary but bench_ops and every example
# flag-free; the observability-flagged ones again with --metrics
# --trace --health; bench_ops both as a google-benchmark run and with
# --perf-json; blitz-replay record (plain and --tamper), info, verify,
# diff and bisect; blitz-top record (plain and --uniform), summary and
# diff; and bench_e2e --quick. `gcov -f -m -n` then
# summarises every object of both trees, and a function is zero-hit
# when each copy of it (a header-inline one has one per object) ran 0%
# of its lines. stderr also gets how many executable src/ lines no
# copy ran, out of how many, and the wall time. The runs take minutes:
# bench_fig07 and bench_ops --perf-json are the longest.
set -euo pipefail
export LC_ALL=C

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
mode=link
if [ "${1:-}" = "--coverage" ]; then
    mode=coverage
    shift
fi
if [ "$mode" = link ]; then
    build="${1:-$root/build-unreached}"
else
    build="${1:-$root/build-unreached-cov}"
fi

jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Keep plain blitz:: functions, one demangled signature per line: the
# name before the parameter list, template arguments stripped, must be
# one blitz:: qualified name. A function-template instantiation
# demangles with its return type first (a space), and a closure body
# carries {lambda: which of those exist depends on the caller's types,
# so an unreached one says nothing about the code. blitz::bench and
# blitz::testing are the benches' and the tests' own helpers. A special
# member is C::C(), C::C(C const&), C::C(C&&) or C::operator=(C
# const&/C&&).
plain_functions() {
    awk 'function special(line,    cut, raw, args, cls, last, self) {
        if (line ~ /[(]anonymous namespace[)]/)
            return 0
        cut = index(line, "(")
        raw = substr(line, 1, cut - 1)
        args = substr(line, cut + 1)
        sub(/[)]$/, "", args)
        if (!match(raw, /::[^:]*$/))
            return 0
        cls = substr(raw, 1, RSTART - 1)
        last = substr(raw, RSTART + 2)
        self = cls
        sub(/<.*$/, "", self)
        sub(/.*::/, "", self)
        if (last == self && args == "")
            return 1
        return (last == self || last == "operator=") &&
               (args == cls " const&" || args == cls "&&")
    }
    !/[{]lambda/ && !special($0) {
        name = $0
        cut = index(name, "(")
        if (cut > 0)
            name = substr(name, 1, cut - 1)
        while (gsub(/<[^<>]*>/, "", name) > 0)
            ;
        if (name ~ /^blitz::/ && name !~ / / &&
            name !~ /^blitz::(testing|bench)::/)
            print
    }' | sort -u
}

if [ "$mode" = link ]; then
    cxxflags="-ffunction-sections -fdata-sections -fkeep-inline-functions"
    flags=(-DCMAKE_BUILD_TYPE=Release
           "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -g0 -DNDEBUG"
           "-DCMAKE_CXX_FLAGS=$cxxflags"
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
    cmake -S "$root" -B "$build/main" -DBUILD_TESTING=ON "${flags[@]}" >&2
    cmake --build "$build/main" --parallel "$jobs" >&2
    cmake -S "$root/benchmark" -B "$build/benchmark" "${flags[@]}" >&2
    cmake --build "$build/benchmark" --parallel "$jobs" \
        --target bench_e2e >&2

    # Mangled names of the functions the named files define.
    functions() {
        xargs -0 nm --defined-only 2>/dev/null |
            awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u
    }

    find "$build/main/src" "$build/main/tests" -name '*.o' -print0 |
        functions > "$tmp/candidates"
    {
        find "$build/main/bench" "$build/main/examples" \
            "$build/main/tools" -maxdepth 1 -type f -executable -print0
        printf '%s\0' "$build/benchmark/bench_e2e"
    } | functions > "$tmp/linked"

    comm -23 "$tmp/candidates" "$tmp/linked" | c++filt |
        plain_functions > "$tmp/unreached"
    cat "$tmp/unreached"
    echo "$(wc -l < "$tmp/unreached") blitz:: functions reached by no" \
         "production binary" >&2
    exit 0
fi

started=$(date +%s)
release=(-DCMAKE_BUILD_TYPE=Release "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -DNDEBUG")
cmake -S "$root" -B "$build/main" -DBLITZ_COVERAGE=ON -DBUILD_TESTING=OFF \
    "${release[@]}" >&2
cmake --build "$build/main" --parallel "$jobs" >&2
cmake -S "$root/benchmark" -B "$build/benchmark" "${release[@]}" \
    "-DCMAKE_CXX_FLAGS=--coverage -fprofile-update=atomic" \
    "-DCMAKE_EXE_LINKER_FLAGS=--coverage" >&2
cmake --build "$build/benchmark" --parallel "$jobs" --target bench_e2e >&2
# Counts from an earlier audit of the same trees would add up.
find "$build" -name '*.gcda' -delete

bin="$build/main"
# run NAME CMD...: CMD in a fresh scratch directory, output kept there.
run() {
    local name=$1 dir="$tmp/run/$1" rc=0
    shift
    mkdir -p "$dir"
    (cd "$dir" && "$@") > "$dir/stdout" 2> "$dir/stderr" || rc=$?
    [ "$rc" -eq 0 ] || echo "note: $name exited $rc" >&2
}
# queue NAME CMD...: run in the background, at most $jobs at a time.
queue() {
    while [ "$(jobs -rp | wc -l)" -ge "$jobs" ]; do
        wait -n || true
    done
    run "$@" &
}
# The tool sessions; diff and bisect exit 1 on the differences they
# are shown.
replay() {
    local r="$bin/tools/blitz-replay"
    "$r" record a.blzr && "$r" record b.blzr --tamper 1000 &&
        "$r" info a.blzr && "$r" verify a.blzr &&
        { "$r" diff a.blzr b.blzr || [ $? -eq 1 ]; } &&
        { "$r" bisect a.blzr b.blzr || [ $? -eq 1 ]; }
}
top() {
    local t="$bin/tools/blitz-top"
    "$t" record a.json && "$t" record b.json --uniform &&
        "$t" summary a.json &&
        { "$t" diff a.json b.json || [ $? -eq 1 ]; }
}

# Longest first, so the slow tail overlaps the short runs.
queue fig07 "$bin/bench/bench_fig07_random_pairing"
queue ops-json "$bin/bench/bench_ops" --perf-json=perf.json
queue ops "$bin/bench/bench_ops"
queue replay replay
queue top top
queue e2e "$build/benchmark/bench_e2e" --quick
for exe in "$bin"/bench/bench_* "$bin"/examples/*; do
    [ -f "$exe" ] && [ -x "$exe" ] || continue
    name=$(basename "$exe")
    case $name in
        bench_ops | bench_fig07_random_pairing) ;;
        *) queue "$name" "$exe" ;;
    esac
    # The flagged binaries are those whose usage text names --metrics.
    if grep -q -- '--metrics' "$exe"; then
        queue "$name-flags" "$exe" --metrics --trace --health
    fi
done
wait

# One "name<TAB>percent" row per function copy, then the names that ran
# 0% in every copy. gcov takes one object per call: given several, it
# merges same-named sources and misreports them.
find "$build" -name '*.gcno' -print0 |
    xargs -0 -n 1 gcov -f -m -n 2>/dev/null |
    awk 'index($0, "Function ") == 1 {
             name = substr($0, 11, length($0) - 11)
             next
         }
         /^Lines executed:/ && name != "" {
             sub(/^Lines executed:/, "")
             print name "\t" ($0 + 0)
         }
         { name = "" }' |
    awk -F'\t' '{ seen[$1] = 1; if ($2 > 0) hit[$1] = 1 }
         END { for (f in seen) if (!(f in hit)) print f }' |
    plain_functions > "$tmp/unreached"
# Executable src/ lines, and those no copy ran, from the annotated
# sources (count "-" = not executable, "#####"/"=====" = never ran).
lines=$(find "$build" -name '*.gcno' -print0 |
    xargs -0 -n 1 gcov -t 2>/dev/null |
    awk -F: -v src="$root/src/" '
        $2 + 0 == 0 { if ($3 == "Source") file = $4; next }
        index(file, src) != 1 { next }
        { count = $1; gsub(/ /, "", count) }
        count == "-" { next }
        { key = file ":" ($2 + 0); exec[key] = 1 }
        count ~ /^[0-9]/ { hit[key] = 1 }
        END {
            for (k in exec) { n++; if (!(k in hit)) z++ }
            print z + 0 " of " n + 0
        }')
cat "$tmp/unreached"
echo "$(wc -l < "$tmp/unreached") blitz:: functions no production run" \
     "executes; $lines executable src/ lines never ran;" \
     "$(( $(date +%s) - started )) s" >&2
