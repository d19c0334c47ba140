/**
 * @file
 * Sustained-churn study (empirical check of Fig. 21's right plot).
 *
 * Fig. 21 *derives* the fraction of time spent in power management
 * from the fitted response law: decisions arrive every T_w / N and
 * each costs T(N). This bench measures that fraction directly: per-
 * tile on/off phases with mean duration T_w (the Section I workload
 * model, via workload::PhaseGenerator) drive the behavioral mesh, and
 * the engine samples how often the coin distribution is out of
 * equilibrium (Err above threshold = a reallocation in flight).
 */

#include <array>

#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "sweep/sweep.hpp"
#include "trace/attach.hpp"
#include "workload/phase_gen.hpp"

using namespace blitz;

namespace {

/**
 * Fraction of samples with Err above threshold during churn. When
 * @p reg / @p tracer are set (an observed replication), the mesh's
 * gauges sample on the engine's own cadence and the busy flag lands as
 * a counter track — pure reads, so the fraction is unchanged.
 */
double
churnFraction(int d, sim::Tick twTicks, std::uint64_t seed,
              trace::Registry *reg = nullptr,
              trace::Tracer *tracer = nullptr)
{
    coin::EngineConfig cfg; // paper defaults
    coin::MeshSim sim(noc::Topology::square(d), cfg, seed);
    const auto n = static_cast<std::uint32_t>(d * d);

    workload::PhaseGenConfig pg;
    pg.meanPhaseTicks = twTicks;
    workload::PhaseGenerator gen(n, pg, seed + 999);

    const sim::Tick horizon = 4 * twTicks;
    auto events = gen.generate(horizon);

    // Initial state: per-generator activity flags, coins spread.
    coin::Coins demand = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        coin::Coins m = gen.initialActive()[i] ? 16 : 0;
        sim.setMax(i, m);
        demand += 16; // pool sized for the average (half active)
    }
    sim.randomizeHas(demand / 2);
    if (reg)
        trace::attachMeshMetrics(sim, *reg, 2'048);
    sim.runUntilConverged(1.0, twTicks); // settle the initial state

    std::size_t next_event = 0;
    std::uint64_t samples = 0, busy = 0;
    const sim::Tick sample_period = 200;
    while (sim.now() < horizon) {
        // Apply any activity changes that are due.
        while (next_event < events.size() &&
               events[next_event].when <= sim.now()) {
            const auto &e = events[next_event];
            sim.setMax(e.tile, e.startsExecution ? 16 : 0);
            ++next_event;
        }
        sim.runFor(sample_period);
        ++samples;
        // Busy = some tile is still out of equilibrium beyond the
        // quantization band. The *mean* error cannot see a single
        // tile's transition on a large mesh (1/N dilution), but the
        // per-tile max can.
        const bool over = sim.maxError() > 2.0;
        busy += over ? 1 : 0;
        if (tracer)
            tracer->counter("churn", "pm_busy", 0, sim.now(),
                            over ? 1.0 : 0.0);
    }
    return static_cast<double>(busy) / static_cast<double>(samples);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics | bench::kObsTrace),
        "bench_churn");
    const bench::ObsFlags &flags = obs.flags();
    bench::banner("Churn (extension of Fig. 21 right)",
                  "measured PM-time fraction under per-tile phase "
                  "churn");

    constexpr std::array<int, 5> ds{4, 8, 12, 16, 20};
    constexpr std::size_t seedsPerPoint = 5;

    // --metrics re-runs one observed replication per (T_w, d) point
    // outside the sweep (the mesh schema carries per-tile columns, so
    // each d gets its own tagged CSV); --trace collects the busy-flag
    // tracks in one file, a process lane per point. The sweep itself
    // is untouched, so the printed fractions never change.
    std::uint32_t pid = 0;

    for (double tw_us : {250.0, 1000.0}) {
        const sim::Tick tw = sim::usToTicks(tw_us);
        std::printf("\nT_w = %.0f us:\n", tw_us);
        std::printf("%4s %6s | %12s | %14s\n", "d", "N",
                    "measured PM%", "analytic PM%");
        // All (d, seed) replications fan out over the sweep harness;
        // per-d summaries are folded in replication order.
        auto fracs = sweep::runSweep(
            ds.size() * seedsPerPoint, /*rootSeed=*/tw,
            [&](std::size_t i, std::uint64_t seed) {
                return churnFraction(ds[i / seedsPerPoint], tw, seed);
            });
        for (std::size_t k = 0; k < ds.size(); ++k) {
            int d = ds[k];
            sim::Summary frac;
            for (std::size_t s = 0; s < seedsPerPoint; ++s)
                frac.add(fracs[k * seedsPerPoint + s]);
            // Analytic prediction with the repo's fitted tau_BC
            // (bench_fig21): T(N) = 0.08 us sqrt(N).
            double n = static_cast<double>(d) * d;
            double analytic =
                n * (0.08 * std::sqrt(n)) / tw_us;
            std::printf("%4d %6.0f | %11.1f%% | %13.1f%%\n", d, n,
                        frac.mean() * 100.0, analytic * 100.0);
            if (flags.any()) {
                bench::ObsCapture cap;
                trace::Registry reg;
                churnFraction(d, tw,
                              sweep::streamSeed(tw, k * seedsPerPoint),
                              flags.metrics ? &reg : nullptr,
                              cap.openTracer(flags, pid++));
                cap.metrics = reg.takeSeries();
                char tag[32];
                std::snprintf(tag, sizeof tag, "tw%.0f-d%d", tw_us, d);
                obs.absorb(cap, tag);
            }
        }
    }
    obs.finish();
    std::printf("\nShape check: measured fraction grows ~N^1.5 with "
                "size and inversely with T_w, tracking the analytic "
                "model's order of magnitude.\n");
    return 0;
}
