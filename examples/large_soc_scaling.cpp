/**
 * @file
 * Scalability walk-through: why decentralized power management is the
 * only scheme that survives hundreds of accelerators.
 *
 * Part 1 sweeps behavioral meshes from 4x4 to 20x20 and shows the
 * sqrt(N) convergence trend directly. Part 2 fits the Section V-E
 * scaling laws from those measurements and extrapolates N_max for
 * millisecond-scale workloads, reproducing the paper's headline
 * "BlitzCoin supports ~1000 accelerators at T_w >= 7 ms".
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "analytic/scaling.hpp"
#include "bench_obs.hpp"
#include "coin/engine.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "sweep/sweep.hpp"
#include "trace/attach.hpp"

using namespace blitz;

namespace {

/** One trial: convergence time (< 0 if missed) plus, with --metrics,
 *  the ledger snapshot series for this replication. */
struct Trial
{
    double cycles = -1.0;
    bench::ObsCapture obs;
};

/** One behavioral convergence trial. */
Trial
convergeCycles(int d, std::uint64_t seed, bool metrics)
{
    coin::EngineConfig cfg; // paper defaults
    trace::Registry reg;
    coin::MeshSim sim(noc::Topology::square(d), cfg, seed);
    if (metrics)
        trace::attachMeshMetrics(sim, reg, 1'024);
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < sim.ledger().size(); ++i) {
        coin::Coins m = 8 << (i % 3); // 8/16/32 mix
        sim.setMax(i, m);
        demand += m;
    }
    sim.clusterHas(demand / 2);
    auto r = sim.runUntilConverged(1.0, sim::msToTicks(20.0));
    Trial t;
    t.cycles = r.converged ? static_cast<double>(r.time) : -1.0;
    if (metrics)
        t.obs.metrics = reg.takeSeries();
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    // The behavioral MeshSim has no timeline hooks and no health
    // counters: only --metrics applies.
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics),
        "large_soc_scaling");
    std::printf("Part 1: behavioral convergence sweep "
                "(1-way, dynamic timing, random pairing)\n\n");
    std::printf("%4s %6s %14s %14s %12s\n", "d", "N", "cycles (mean)",
                "us @ 800MHz", "cycles/d");

    // Sweep harness: all (d, seed) replications run in parallel with
    // seeds derived from the root, and the per-size means fold in
    // replication order — same numbers at any thread count.
    std::vector<int> ds;
    for (int d = 4; d <= 20; d += 2)
        ds.push_back(d);
    constexpr std::size_t seedsPerPoint = 30;
    auto trials = sweep::runSweep(
        ds.size() * seedsPerPoint, /*rootSeed=*/1,
        [&](std::size_t i, std::uint64_t seed) {
            return convergeCycles(ds[i / seedsPerPoint], seed,
                                  obs.flags().metrics);
        });

    std::vector<std::pair<double, double>> samples;
    for (std::size_t k = 0; k < ds.size(); ++k) {
        int d = ds[k];
        sim::Summary cycles;
        bench::ObsCapture merged;
        for (std::size_t i = 0; i < seedsPerPoint; ++i) {
            Trial &t = trials[k * seedsPerPoint + i];
            if (t.cycles >= 0.0)
                cycles.add(t.cycles);
            merged.merge(std::move(t.obs));
        }
        // Per-size CSVs: the schema carries one column per tile, so
        // mesh sizes cannot share a file.
        char tag[16];
        std::snprintf(tag, sizeof tag, "%dx%d", d, d);
        obs.absorb(merged, tag);
        samples.emplace_back(static_cast<double>(d) * d,
                             sim::ticksToUs(static_cast<sim::Tick>(
                                 cycles.mean())));
        std::printf("%4d %6d %14.0f %14.2f %12.1f\n", d, d * d,
                    cycles.mean(),
                    sim::ticksToUs(
                        static_cast<sim::Tick>(cycles.mean())),
                    cycles.mean() / d);
    }
    std::printf("\n(cycles/d roughly constant -> time ~ d = sqrt(N))\n");

    std::printf("\nPart 2: fitted law and N_max extrapolation\n\n");
    auto law = analytic::fitLaw(analytic::Scheme::BC, samples);
    std::printf("  T(N) = %.3f us * sqrt(N)\n\n", law.tauUs);
    std::printf("%10s %10s\n", "T_w (ms)", "N_max");
    for (double tw_ms : {0.2, 1.0, 7.0, 20.0})
        std::printf("%10.1f %10.0f\n", tw_ms, law.nMax(tw_ms * 1000.0));
    std::printf("\nA centralized scheme with the same per-tile cost "
                "would manage %.0fx fewer tiles at T_w = 7 ms.\n",
                law.nMax(7000.0) /
                    analytic::ScalingLaw{analytic::Scheme::CRR,
                                         law.tauUs, 1.0}
                        .nMax(7000.0));
    obs.finish();
    return 0;
}
