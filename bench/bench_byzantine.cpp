/**
 * @file
 * Byzantine sweep: overdraw and starvation versus attacker count, with
 * and without the integrity guardian (DESIGN.md ch.8, EXPERIMENTS.md).
 *
 * A 6x6 mesh is seeded with the bench-standard heterogeneous demand
 * and half-provisioned pool, then the first k of three canned
 * attackers are armed: a coin Inflator at tile 18, a request Spammer
 * at tile 1, and a StuckGreedy hoarder at tile 2. Each (k, guardian)
 * cell replicates over seeds on the deterministic sweep harness.
 *
 * Guardian-off rows run with the audit watchdog disabled, so the raw
 * damage is visible: overdraw is the counterfeit surplus left in the
 * mesh (total - provisioned pool) and `missed` counts trials where the
 * attackers kept the cluster from ever converging. Guardian-on rows
 * arm the shadow-accounting guardian on the 4096-tick audit cadence;
 * overdraw is then measured over the *non-quarantined* population
 * after the remint watchdog reclaims each fenced tile, and should sit
 * within the configured leak bound (0 after the post-run reconcile).
 *
 * Output is bit-identical for any BLITZ_SWEEP_THREADS setting (ordered
 * fold over streamSeed-derived trials) and any BLITZ_SHARDS setting.
 *
 * `--metrics[=path]` / `--trace[=path]` / `--health[=path]` opt into
 * the observability plane (see bench_obs.hpp); without the flags the
 * printed numbers are byte-identical to a flag-free run.
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
    int attackers = 0;
    bool guardian = false;
};

/** Aggregate over one scenario's replications. */
struct Row
{
    sim::Percentiles convergeTicks;
    sim::Summary overdraw;      ///< |total - pool| after the run
    sim::Summary counterfeited; ///< coins the attackers minted
    sim::Summary quarantines;   ///< tiles the guardian removed
    sim::Summary detections;    ///< detector strikes journaled
    sim::Summary reclaimed;     ///< coins the audit reminted
    int failures = 0;           ///< trials missing the deadline
    bench::ObsCapture obs;

    void
    merge(Row &&o)
    {
        convergeTicks.merge(o.convergeTicks);
        overdraw.merge(o.overdraw);
        counterfeited.merge(o.counterfeited);
        quarantines.merge(o.quarantines);
        detections.merge(o.detections);
        reclaimed.merge(o.reclaimed);
        failures += o.failures;
        obs.merge(std::move(o.obs));
    }
};

constexpr sim::Tick deadline = 400'000;
constexpr double convergedTol = 2.5;

/** The canned attacker roster; a scenario arms the first k. */
void
armAttackers(fault::ChaosConfig &cc, int k)
{
    using fault::ByzantineBehavior;
    fault::ByzantineSpec inflator;
    inflator.node = 18;
    inflator.behavior = ByzantineBehavior::Inflator;
    inflator.amount = 8;
    inflator.period = 512;
    fault::ByzantineSpec spammer;
    spammer.node = 1;
    spammer.behavior = ByzantineBehavior::Spammer;
    fault::ByzantineSpec greedy;
    greedy.node = 2;
    greedy.behavior = ByzantineBehavior::StuckGreedy;
    const fault::ByzantineSpec roster[] = {inflator, spammer, greedy};
    for (int i = 0; i < k; ++i)
        cc.byzantine.specs.push_back(roster[i]);
}

Row
runTrial(const Scenario &sc, std::uint64_t seed,
         const bench::ObsFlags &flags, std::uint32_t pid)
{
    fault::ChaosConfig cc;
    cc.width = 6;
    cc.height = 6;
    cc.arena = &sim::threadArena();
    cc.seedBase = seed;
    cc.fault.seed = seed;
    cc.byzantine.seed = seed;
    if (auto k = sim::envCount("BLITZ_SHARDS"))
        cc.shards = *k;
    armAttackers(cc, sc.attackers);
    if (sc.guardian) {
        cc.guardianEnabled = true;
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
    const auto n = static_cast<std::size_t>(cc.width * cc.height);
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

    std::optional<sim::Tick> t =
        cluster.runUntilConverged(convergedTol, 64, deadline);

    if (t)
        r.convergeTicks.add(static_cast<double>(*t));
    else
        ++r.failures;
    // Stop the exchange engines and drain in-flight traffic so the
    // totals below are settled, then (guardian rows) reconcile so the
    // remint watchdog closes whatever gap quarantine left.
    for (std::size_t i = 0; i < n; ++i)
        cluster.unit(i).stop();
    cluster.eq().runUntil(cluster.eq().now() + 20'000);
    if (sc.guardian)
        cluster.reconcile();

    const coin::Coins total = cluster.totalCoins();
    const coin::Coins od = total - pool;
    r.overdraw.add(static_cast<double>(od < 0 ? -od : od));
    if (cluster.byzantinePlan())
        r.counterfeited.add(static_cast<double>(
            cluster.byzantinePlan()->stats().counterfeited));
    else
        r.counterfeited.add(0.0);
    if (cluster.guardian()) {
        r.quarantines.add(
            static_cast<double>(cluster.guardian()->quarantines()));
        r.detections.add(
            static_cast<double>(cluster.guardian()->detections()));
    } else {
        r.quarantines.add(0.0);
        r.detections.add(0.0);
    }
    r.reclaimed.add(static_cast<double>(cluster.audit().coinsMinted()));
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
                          "bench_byzantine");
    bench::banner("Byzantine sweep",
                  "overdraw and starvation vs. attacker count, with "
                  "and without the integrity guardian");
    std::printf("%-9s %8s | %10s %6s | %9s %9s %9s %6s %7s\n",
                "attackers", "guardian", "conv p50", "missed",
                "overdraw", "counterf", "reclaim", "quar", "detect");

    constexpr std::size_t trials = 8;
    constexpr std::uint64_t rootSeed = 2026;

    std::uint64_t scenarioIdx = 0;
    for (int attackers : {0, 1, 2, 3}) {
        for (bool guardian : {false, true}) {
            const Scenario sc{attackers, guardian};
            // Pre-size from the replication count: one sample per
            // trial, so the fold never regrows the buffer.
            Row acc;
            acc.convergeTicks.reserve(trials);
            Row row = obs.sweepFold(
                trials, sweep::streamSeed(rootSeed, scenarioIdx),
                std::move(acc), [&](std::uint64_t seed, std::uint32_t pid) {
                    return runTrial(sc, seed, obs.flags(), pid);
                });
            char tag[48];
            std::snprintf(tag, sizeof tag, "s%02u-k%d-g%d",
                          static_cast<unsigned>(scenarioIdx),
                          sc.attackers, sc.guardian ? 1 : 0);
            obs.absorb(row.obs, tag);
            ++scenarioIdx;
            const bool any = row.convergeTicks.count() > 0;
            std::printf("%-9d %8s | %10.0f %6d | %9.1f %9.1f %9.1f "
                        "%6.1f %7.1f\n",
                        sc.attackers, sc.guardian ? "on" : "off",
                        any ? row.convergeTicks.median() : 0.0,
                        row.failures, row.overdraw.mean(),
                        row.counterfeited.mean(), row.reclaimed.mean(),
                        row.quarantines.mean(), row.detections.mean());
        }
    }
    obs.finish();
    std::printf("\nGuardian-off rows leave the counterfeit surplus in "
                "the mesh; guardian-on rows quarantine the attackers "
                "and the audit watchdog reclaims the fenced coins.\n");
    return 0;
}
