/**
 * @file
 * blitz-top: render and compare run health reports.
 *
 *   blitz-top record <out.json> [--d N] [--shards K] [--ticks T]
 *                    [--seed S] [--uniform]
 *   blitz-top summary   <health.json>
 *   blitz-top imbalance <health.json>
 *   blitz-top diff      <a.json> <b.json>
 *
 * `record` runs a column-skewed d x d BlitzCoin mesh (all demand and
 * coins parked on the leftmost quarter of the columns, so BSP column
 * bands are deliberately unbalanced) with the superstep profiler
 * attached and writes the run's HealthReport. `summary` prints both
 * sections of a report; `imbalance` renders the per-shard
 * execute/barrier/event table plus the hottest/coldest ratio; `diff`
 * compares two reports' *deterministic* sections key by key — the
 * wallclock section is never part of the verdict.
 *
 * Exit codes: 0 = ok / identical deterministic sections; 1 = diff
 * found differences; 2 = usage or I/O error.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "sim/env.hpp"
#include "trace/health.hpp"
#include "trace/prof.hpp"

using namespace blitz;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: blitz-top <command> ...\n"
        "  record <out.json> [--d N] [--shards K] [--ticks T]\n"
        "         [--seed S] [--uniform]\n"
        "  summary   <health.json>\n"
        "  imbalance <health.json>\n"
        "  diff      <a.json> <b.json>\n");
    return 2;
}

bool
loadReport(const char *path, trace::HealthReport &report)
{
    std::ifstream is(path);
    if (is && report.parse(is))
        return true;
    std::fprintf(stderr, "blitz-top: cannot parse report '%s'\n", path);
    return false;
}

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/**
 * Value of --flag NAME at argv[i] as a count in [lo, hi]; advances i
 * past the value. A missing, malformed or out-of-range value exits 2
 * naming the flag.
 */
bool
numArg(int argc, char **argv, int &i, const char *name, std::uint64_t lo,
       std::uint64_t hi, std::uint64_t &out)
{
    if (std::strcmp(argv[i], name) != 0)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "blitz-top: %s needs a value\n", name);
        std::exit(2);
    }
    const auto v = sim::parseCount(argv[++i], lo, hi);
    if (!v) {
        std::fprintf(stderr,
                     "blitz-top: %s '%s' is not a count in [%llu, %llu]\n",
                     name, argv[i], static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
        std::exit(2);
    }
    out = *v;
    return true;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const char *out = argv[0];
    std::uint64_t d = 16;
    std::uint64_t shards = 4;
    std::uint64_t ticks = 60'000;
    std::uint64_t seed = 7001;
    bool uniform = false;
    for (int i = 1; i < argc; ++i) {
        if (numArg(argc, argv, i, "--d", 2, kU32Max, d) ||
            numArg(argc, argv, i, "--shards", 1, kU32Max, shards) ||
            numArg(argc, argv, i, "--ticks", 1, kU64Max, ticks) ||
            numArg(argc, argv, i, "--seed", 0, kU64Max, seed))
            continue;
        if (std::strcmp(argv[i], "--uniform") != 0) {
            std::fprintf(stderr, "blitz-top: unknown flag '%s'\n", argv[i]);
            return usage();
        }
        uniform = true;
    }
    if (d * d > sim::kMaxMeshNodes) {
        std::fprintf(stderr,
                     "blitz-top: --d %llu exceeds the %zu-node mesh "
                     "ceiling\n",
                     static_cast<unsigned long long>(d),
                     sim::kMaxMeshNodes);
        return 2;
    }

    fault::ChaosConfig cc;
    cc.width = static_cast<int>(d);
    cc.height = static_cast<int>(d);
    cc.seedBase = seed;
    cc.shards = static_cast<std::uint32_t>(shards);
    fault::ChaosCluster cluster(cc);

    trace::SuperstepProfiler prof;
    if (cluster.shardGroup())
        prof.attach(*cluster.shardGroup());

    // Demand profile: uniform spreads work over every column band;
    // the default skew parks all demand (and the whole coin pool) on
    // the leftmost quarter of the columns, so the left band's shard
    // runs hot while the right bands mostly idle at the barrier.
    const auto n = static_cast<std::size_t>(d * d);
    const auto hotCols =
        std::max<std::size_t>(static_cast<std::size_t>(d) / 4, 1);
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t col = i % static_cast<std::size_t>(d);
        const coin::Coins m =
            (uniform || col < hotCols) ? 96 : 4;
        cluster.setMax(i, m);
        demand += m;
    }
    const coin::Coins pool = demand / 2;
    std::size_t holders = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (uniform || i % static_cast<std::size_t>(d) < hotCols)
            ++holders;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!uniform && i % static_cast<std::size_t>(d) >= hotCols)
            continue;
        coin::Coins share = pool / static_cast<coin::Coins>(holders);
        if (seen < static_cast<std::size_t>(
                       pool % static_cast<coin::Coins>(holders)))
            ++share;
        cluster.setHas(i, share);
        ++seen;
    }
    cluster.sealProvision();
    cluster.startAll();
    cluster.eq().runUntil(static_cast<sim::Tick>(ticks));
    cluster.quiesce();

    trace::HealthReport report;
    char label[96];
    std::snprintf(label, sizeof label,
                  "blitz-top record d=%llu shards=%llu ticks=%llu "
                  "seed=%llu%s",
                  static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(shards),
                  static_cast<unsigned long long>(ticks),
                  static_cast<unsigned long long>(seed),
                  uniform ? " uniform" : "");
    report.setRun(label);
    cluster.fillHealth(report);
    if (prof.attached())
        prof.fillHealth(report);

    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "blitz-top: cannot write '%s'\n", out);
        return 2;
    }
    report.writeJson(os);
    std::printf("wrote %s (%zu deterministic, %zu wallclock keys)\n",
                out, report.deterministic().size(),
                report.wallclock().size());
    return 0;
}

void
printEntries(const char *title,
             const std::vector<trace::HealthReport::Entry> &entries)
{
    std::printf("%s (%zu keys)\n", title, entries.size());
    for (const auto &e : entries) {
        if (std::nearbyint(e.second) == e.second &&
            std::fabs(e.second) < 9.007199254740992e15)
            std::printf("  %-40s %lld\n", e.first.c_str(),
                        static_cast<long long>(e.second));
        else
            std::printf("  %-40s %.6g\n", e.first.c_str(), e.second);
    }
}

int
cmdSummary(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    trace::HealthReport report;
    if (!loadReport(argv[0], report))
        return 2;
    std::printf("run: %s\n", report.run().c_str());
    printEntries("deterministic", report.deterministic());
    printEntries("wallclock", report.wallclock());
    return 0;
}

int
cmdImbalance(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    trace::HealthReport report;
    if (!loadReport(argv[0], report))
        return 2;
    const double *shards = report.findDet("prof.shards");
    if (!shards || *shards < 1) {
        std::fprintf(stderr,
                     "blitz-top: no profiler data in '%s' (record "
                     "with --shards >= 1)\n",
                     argv[0]);
        return 2;
    }
    std::printf("run: %s\n", report.run().c_str());
    std::printf("%-8s %12s %12s %14s %12s\n", "shard", "exec_ms",
                "barrier_ms", "events", "inbox");
    const auto count = static_cast<std::uint32_t>(*shards);
    for (std::uint32_t s = 0; s < count; ++s) {
        char key[64];
        std::snprintf(key, sizeof key, "prof/shard%u.exec_ms", s);
        const double *exec = report.findWall(key);
        std::snprintf(key, sizeof key, "prof/shard%u.barrier_ms", s);
        const double *barrier = report.findWall(key);
        std::snprintf(key, sizeof key, "prof/shard%u.events", s);
        const double *events = report.findDet(key);
        std::snprintf(key, sizeof key, "prof/shard%u.inbox", s);
        const double *inbox = report.findDet(key);
        std::printf("%-8u %12.3f %12.3f %14.0f %12.0f\n", s,
                    exec ? *exec : 0.0, barrier ? *barrier : 0.0,
                    events ? *events : 0.0, inbox ? *inbox : 0.0);
    }
    const double *imb = report.findWall("prof.imbalance");
    const double *steps = report.findDet("prof.supersteps");
    const double *cross = report.findDet("prof.cross.events");
    std::printf("supersteps %.0f   cross events %.0f   "
                "imbalance (hottest/coldest exec) %.2fx\n",
                steps ? *steps : 0.0, cross ? *cross : 0.0,
                imb ? *imb : 1.0);
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    trace::HealthReport a;
    trace::HealthReport b;
    if (!loadReport(argv[0], a) || !loadReport(argv[1], b))
        return 2;
    const auto diffs = trace::HealthReport::diff(a, b);
    if (diffs.empty()) {
        std::printf("deterministic sections identical (%zu keys)\n",
                    a.deterministic().size());
        return 0;
    }
    std::printf("%zu deterministic difference%s\n", diffs.size(),
                diffs.size() == 1 ? "" : "s");
    for (const auto &e : diffs) {
        if (!e.inA)
            std::printf("  %-40s (absent) -> %.17g\n", e.key.c_str(),
                        e.b);
        else if (!e.inB)
            std::printf("  %-40s %.17g -> (absent)\n", e.key.c_str(),
                        e.a);
        else
            std::printf("  %-40s %.17g -> %.17g\n", e.key.c_str(),
                        e.a, e.b);
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const char *cmd = argv[1];
    argc -= 2;
    argv += 2;
    if (std::strcmp(cmd, "record") == 0)
        return cmdRecord(argc, argv);
    if (std::strcmp(cmd, "summary") == 0)
        return cmdSummary(argc, argv);
    if (std::strcmp(cmd, "imbalance") == 0)
        return cmdImbalance(argc, argv);
    if (std::strcmp(cmd, "diff") == 0)
        return cmdDiff(argc, argv);
    return usage();
}
