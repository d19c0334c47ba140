/**
 * @file
 * Chaos sweep: re-convergence and coin conservation under injected
 * faults (the robustness claim of Sections IV-A and VI-C, measured).
 *
 * Scenarios sweep drop rates, duplication/corruption, a tile
 * crash+restart window, and a timed mesh partition over 4x4 and 6x6
 * meshes, each replicated over seeds on the deterministic sweep
 * harness. Per scenario the bench reports how fast the cluster
 * re-converges after the last fault clears, how many coins the audit
 * watchdog had to remint, and the recovery-protocol counters. Every
 * trial ends in ChaosCluster::quiesce(), which *asserts* that the
 * seeded coin total is exactly restored — a conservation failure
 * aborts the bench rather than skewing a column.
 *
 * Output is bit-identical for any BLITZ_SWEEP_THREADS setting (ordered
 * fold over streamSeed-derived trials).
 */

#include <optional>

#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "fault/chaos.hpp"
#include "sim/env.hpp"
#include "sweep/sweep.hpp"

using namespace blitz;

namespace {

struct Scenario
{
    const char *name;
    int d = 4;
    double drop = 0.0;
    double duplicate = 0.0;
    double corrupt = 0.0;
    bool crash = false;
    bool partition = false;
};

/** Aggregate over one scenario's replications. */
struct Row
{
    sim::Percentiles reconvergeTicks; ///< past the last fault window
    sim::Summary gapClosed;           ///< coins the audit reminted
    sim::Summary dropsSeen;           ///< NoC packets destroyed
    sim::Summary recovered;           ///< deltas replayed via CoinRecover
    sim::Summary abandoned;           ///< losses left to the audit
    sim::Summary dupesIgnored;        ///< replays the stamps rejected
    int failures = 0;                 ///< trials missing the deadline
    bench::ObsCapture obs;

    void
    merge(Row &&o)
    {
        reconvergeTicks.merge(o.reconvergeTicks);
        gapClosed.merge(o.gapClosed);
        dropsSeen.merge(o.dropsSeen);
        recovered.merge(o.recovered);
        abandoned.merge(o.abandoned);
        dupesIgnored.merge(o.dupesIgnored);
        failures += o.failures;
        obs.merge(std::move(o.obs));
    }
};

constexpr sim::Tick faultQuietTick = 12'000;
constexpr sim::Tick deadline = 400'000;
constexpr double convergedTol = 2.5;

Row
runTrial(const Scenario &sc, std::uint64_t seed,
         const bench::ObsFlags &flags, std::uint32_t pid)
{
    fault::ChaosConfig cc;
    cc.width = sc.d;
    cc.height = sc.d;
    // Event slab + packet pool recycle across this worker's trials
    // (the sweep harness resets the arena between replications).
    cc.arena = &sim::threadArena();
    cc.seedBase = seed;
    cc.fault.seed = seed;
    // BLITZ_SHARDS=K runs every trial's event kernel BSP-sharded over
    // K column bands (K=1 is the bit-identity baseline; results are
    // identical for every K by the sharded golden pins). Unset or
    // invalid keeps the legacy single-queue path.
    if (auto k = sim::envCount("BLITZ_SHARDS"))
        cc.shards = *k;
    cc.fault.coinTrafficOnly = true;
    cc.fault.base.drop = sc.drop;
    cc.fault.base.duplicate = sc.duplicate;
    cc.fault.base.corrupt = sc.corrupt;
    const auto n = static_cast<std::size_t>(sc.d * sc.d);
    if (sc.crash) {
        // Two tiles power-fail mid-run and come back; their coins are
        // destroyed and must be reminted by the audit watchdog.
        cc.fault.outages.push_back(
            {static_cast<noc::NodeId>(n / 2), 3'000, faultQuietTick,
             false});
        cc.fault.outages.push_back(
            {static_cast<noc::NodeId>(1), 5'000, faultQuietTick, false});
        cc.auditPeriod = 4'096;
    }
    if (sc.partition) {
        noc::Topology topo(sc.d, sc.d, false);
        cc.fault.partitions.push_back(fault::columnPartition(
            topo, sc.d / 2 - 1, 2'000, faultQuietTick));
        cc.auditPeriod = 4'096;
    }

    // Registry/tracer must outlive the cluster (its samplers read
    // cluster state until the cluster's event queue dies).
    Row r;
    trace::Registry reg;
    fault::ChaosCluster cluster(cc);
    if (flags.metrics)
        cluster.attachMetrics(&reg, 1'024);
    cluster.attachTrace(r.obs.openTracer(flags, pid));
    // Heterogeneous demand; the whole pool starts parked on the first
    // quarter of the mesh so convergence requires long-range transport.
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        coin::Coins m = bench::typeLevel(static_cast<int>(i) % 4);
        cluster.setMax(i, m);
        demand += m;
    }
    const coin::Coins pool = demand / 2;
    const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
    for (std::size_t i = 0; i < quarter; ++i) {
        coin::Coins share = pool / static_cast<coin::Coins>(quarter);
        if (i < static_cast<std::size_t>(
                    pool % static_cast<coin::Coins>(quarter)))
            ++share;
        cluster.setHas(i, share);
    }
    cluster.sealProvision();
    cluster.startAll();

    // Scenarios with timed fault windows measure *re*-convergence
    // after the last window clears; rate-only scenarios measure
    // convergence of the initial imbalance under sustained faults.
    const sim::Tick quiet =
        (sc.crash || sc.partition) ? faultQuietTick : 0;
    if (quiet > 0)
        cluster.eq().runUntil(quiet);
    std::optional<sim::Tick> t =
        cluster.runUntilConverged(convergedTol, 64, deadline);

    if (t) {
        r.reconvergeTicks.add(static_cast<double>(*t - quiet));
    } else {
        ++r.failures;
    }
    // Quiesce asserts exact conservation of the seeded total; the
    // pre-sweep gap is what the watchdog still had to close.
    auto report = cluster.quiesce(65'536);
    r.gapClosed.add(
        static_cast<double>(report.gap < 0 ? -report.gap : report.gap));
    r.dropsSeen.add(static_cast<double>(cluster.net().packetsDropped()));
    double rec = 0.0, aband = 0.0, dupes = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        rec += static_cast<double>(cluster.unit(i).updatesRecovered());
        aband +=
            static_cast<double>(cluster.unit(i).exchangesAbandoned());
        dupes +=
            static_cast<double>(cluster.unit(i).duplicatesIgnored());
    }
    r.recovered.add(rec);
    r.abandoned.add(aband);
    r.dupesIgnored.add(dupes);
    if (flags.metrics)
        r.obs.metrics = reg.takeSeries();
    if (flags.health)
        cluster.fillHealth(r.obs.health);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(bench::parseObsFlags(argc, argv, bench::kObsAll),
                          "bench_chaos");
    bench::banner("Chaos sweep",
                  "re-convergence and exact coin conservation under "
                  "drops, duplication, corruption, crashes, and "
                  "partitions");
    std::printf("%-22s %4s %6s | %10s %10s %6s | %8s %8s %8s %8s\n",
                "scenario", "mesh", "drop", "reconv p50", "reconv p95",
                "missed", "gap", "drops", "recov", "abandon");

    constexpr std::size_t trials = 8;
    constexpr std::uint64_t rootSeed = 2026;

    std::vector<Scenario> scenarios;
    for (int d : {4, 6}) {
        for (double drop : {0.0, 0.02, 0.05, 0.10})
            scenarios.push_back({"drop", d, drop});
        scenarios.push_back({"dup+corrupt", d, 0.05, 0.02, 0.02});
        scenarios.push_back({"crash", d, 0.05, 0.0, 0.0, true});
        scenarios.push_back({"partition", d, 0.02, 0.0, 0.0, false,
                             true});
    }

    // One trace file for the whole run (a process lane per
    // replication); one metrics CSV per scenario, because the snapshot
    // schema carries per-tile columns (4x4 vs 6x6 differ) and summing
    // across fault configs would make the columns meaningless.
    std::uint64_t scenarioIdx = 0;
    for (const Scenario &sc : scenarios) {
        // Pre-size from the replication count: the sample buffer gains
        // at most one entry per trial, so the fold never regrows it.
        Row acc;
        acc.reconvergeTicks.reserve(trials);
        Row row = obs.sweepFold(
            trials, sweep::streamSeed(rootSeed, scenarioIdx),
            std::move(acc), [&](std::uint64_t seed, std::uint32_t pid) {
                return runTrial(sc, seed, obs.flags(), pid);
            });
        char tag[64];
        std::snprintf(tag, sizeof tag, "s%02u-%s-%dx%d",
                      static_cast<unsigned>(scenarioIdx), sc.name, sc.d,
                      sc.d);
        for (char *p = tag; *p; ++p)
            if (*p == '+')
                *p = '_';
        obs.absorb(row.obs, tag);
        ++scenarioIdx;
        const bool any = row.reconvergeTicks.count() > 0;
        std::printf(
            "%-22s %dx%d %6.2f | %10.0f %10.0f %6d | %8.1f %8.0f "
            "%8.1f %8.1f\n",
            sc.name, sc.d, sc.d, sc.drop,
            any ? row.reconvergeTicks.median() : 0.0,
            any ? row.reconvergeTicks.p95() : 0.0, row.failures,
            row.gapClosed.mean(), row.dropsSeen.mean(),
            row.recovered.mean(), row.abandoned.mean());
    }
    obs.finish();
    std::printf("\nEvery trial quiesced with the seeded coin total "
                "exactly restored (asserted).\n");
    return 0;
}
