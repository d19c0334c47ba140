#!/usr/bin/env bash
# List the blitz:: functions that no production binary links.
#
#   bash tools/unreached_symbols.sh [BUILD_DIR]
#
# Configures its own build tree in BUILD_DIR (default: build-unreached/
# at the root of the checkout; not a preset) at -O0 -g0 with
# -ffunction-sections -fdata-sections -fkeep-inline-functions and
# -Wl,--gc-sections, tests on, and builds benchmark/'s bench_e2e beside
# it. -O0 keeps every callee out of line, -fkeep-inline-functions
# emits every inline function (a header-inline member nothing calls
# included), and --gc-sections drops each function section nothing
# reaches, so a function is "reached" exactly when its symbol survives
# into some linked binary.
#
# Candidates are the T/t/W/w symbols defined in the src/ and tests/
# object files (W/w so header-inline members count). Subtracted are the
# symbols present in any production binary: bench/*, examples/*,
# tools/* and bench_e2e. The rest is demangled; plain blitz:: functions
# are kept (template instantiations, lambda bodies and the tests'
# blitz::testing helpers are dropped), and so are the special members
# the compiler may generate (default, copy and move constructors,
# copy and move assignment), which aggregate initialisation never
# calls. The list is printed sorted, one per line, with the count on
# stderr.
#
# A function on the list is reached only from tests: a candidate for
# deletion, or a test-only accessor. The special-member filter works
# on the signature, so a hand-written default constructor is dropped
# too; grep for those. This is a report, not a check: it needs its own
# full build.
set -euo pipefail
export LC_ALL=C

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${1:-$root/build-unreached}"

jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

cxxflags="-ffunction-sections -fdata-sections -fkeep-inline-functions"
flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -g0 -DNDEBUG"
       "-DCMAKE_CXX_FLAGS=$cxxflags"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S "$root" -B "$build/main" -DBUILD_TESTING=ON "${flags[@]}" >&2
cmake --build "$build/main" --parallel "$jobs" >&2
cmake -S "$root/benchmark" -B "$build/benchmark" "${flags[@]}" >&2
cmake --build "$build/benchmark" --parallel "$jobs" --target bench_e2e >&2

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Mangled names of the functions the named files define.
functions() {
    xargs -0 nm --defined-only 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u
}

find "$build/main/src" "$build/main/tests" -name '*.o' -print0 |
    functions > "$tmp/candidates"
{
    find "$build/main/bench" "$build/main/examples" "$build/main/tools" \
        -maxdepth 1 -type f -executable -print0
    printf '%s\0' "$build/benchmark/bench_e2e"
} | functions > "$tmp/linked"

# Keep plain blitz:: functions: the name before the parameter list,
# template arguments stripped, must be one blitz:: qualified name. A
# function-template instantiation demangles with its return type first
# (a space), and a closure body carries {lambda: which of those exist
# depends on the caller's types, so a test-only one says nothing about
# the code. blitz::testing is the tests' own helper namespace. A
# special member is C::C(), C::C(C const&), C::C(C&&) or
# C::operator=(C const&/C&&).
comm -23 "$tmp/candidates" "$tmp/linked" | c++filt |
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
            name !~ /^blitz::testing::/)
            print
    }' | sort -u > "$tmp/unreached"

cat "$tmp/unreached"
echo "$(wc -l < "$tmp/unreached") blitz:: functions reached by no" \
     "production binary" >&2
