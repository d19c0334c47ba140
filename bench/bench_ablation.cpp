/**
 * @file
 * Ablation study of the design choices DESIGN.md calls out:
 *   (a) back-off lambda / k (dynamic-timing aggressiveness),
 *   (b) random-pairing period,
 *   (c) coin counter precision (power levels),
 *   (d) wrap-around neighborhoods,
 *   (e) 4-way arithmetic cost sensitivity.
 *
 * Not a paper figure — these quantify the sensitivity of the paper's
 * chosen configuration (1-way, wrap, dynamic timing, pairing every
 * 16th, 6-bit coins).
 */

#include <deque>
#include <string>

#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "trace/attach.hpp"

using namespace blitz;

namespace {

/**
 * Print one configuration's row. With --metrics/--trace one observed
 * replication per row also lands in @p obs: all rows share one d = 12
 * mesh schema, so the series merge into a single CSV, and the trace
 * gets one process lane per row (numbered by @p pid).
 */
void
report(const char *label, const coin::EngineConfig &cfg,
       const bench::TrialSetup &setup, bench::ObsSession &obs,
       std::uint32_t &pid, int trials = 60)
{
    // Trials fan out over the sweep harness; the fold is in trial
    // order, so the numbers don't depend on the thread count.
    auto s = bench::sweepParallel(setup, cfg, trials);
    std::printf("  %-28s %10.0f cycles %10.0f pkts %4d fail\n", label,
                s.timeCycles.mean(), s.packets.mean(), s.failures);
    const bench::ObsFlags &flags = obs.flags();
    if (!flags.any())
        return;
    // One observed replication per row, re-run outside the sweep with
    // the sweep's own first seed, so the printed aggregates above stay
    // byte-identical with or without the flags.
    trace::Registry reg;
    auto r = bench::runTrial(
        setup, cfg, sweep::streamSeed(1, 0), nullptr, nullptr,
        [&flags, &reg](coin::MeshSim &mesh) {
            if (flags.metrics)
                trace::attachMeshMetrics(mesh, reg, 2'048);
        });
    bench::ObsCapture cap;
    cap.metrics = reg.takeSeries();
    // The tracer keeps the name pointer until trace.json is written,
    // and most labels live in the caller's reused snprintf buffer:
    // keep a copy alive for the whole run (a deque never moves them).
    static std::deque<std::string> names;
    if (trace::Tracer *t = cap.openTracer(flags, pid++))
        t->complete("ablation", names.emplace_back(label).c_str(), 0, 0,
                    r.time,
                    {{"packets", static_cast<std::int64_t>(r.packets)},
                     {"converged",
                      static_cast<std::int64_t>(r.converged)}});
    obs.absorb(cap);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics | bench::kObsTrace),
        "bench_ablation");
    std::uint32_t pid = 0;
    bench::banner("Ablation", "sensitivity of the chosen configuration");

    bench::TrialSetup setup;
    setup.d = 12;
    setup.errThreshold = 1.0;

    coin::EngineConfig base;
    base.wrap = true;
    base.backoff.enabled = true;
    base.pairing.randomPairing = true;

    std::printf("\n(a) back-off lambda (d = 12):\n");
    for (double lambda : {1.25, 1.5, 2.0, 4.0}) {
        coin::EngineConfig cfg = base;
        cfg.backoff.lambda = lambda;
        char label[64];
        std::snprintf(label, sizeof label, "lambda = %.2f", lambda);
        report(label, cfg, setup, obs, pid);
    }

    std::printf("\n(a') back-off shrink k:\n");
    for (sim::Tick k : {2u, 8u, 16u}) {
        coin::EngineConfig cfg = base;
        cfg.backoff.k = k;
        char label[64];
        std::snprintf(label, sizeof label, "k = %llu",
                      static_cast<unsigned long long>(k));
        report(label, cfg, setup, obs, pid);
    }

    std::printf("\n(b) random-pairing period:\n");
    for (unsigned period : {4u, 8u, 16u, 64u}) {
        coin::EngineConfig cfg = base;
        cfg.pairing.period = period;
        char label[64];
        std::snprintf(label, sizeof label, "period = %u", period);
        report(label, cfg, setup, obs, pid);
    }
    {
        coin::EngineConfig cfg = base;
        cfg.pairing.randomPairing = false;
        report("random pairing OFF", cfg, setup, obs, pid);
    }

    std::printf("\n(c) coin precision (pool scales with levels):\n");
    for (double pool_frac : {0.25, 0.5, 0.75}) {
        bench::TrialSetup s2 = setup;
        s2.poolFraction = pool_frac;
        char label[64];
        std::snprintf(label, sizeof label, "pool = %.0f%% of demand",
                      pool_frac * 100.0);
        report(label, base, s2, obs, pid);
    }

    std::printf("\n(d) wrap-around neighborhoods:\n");
    {
        coin::EngineConfig cfg = base;
        cfg.wrap = true;
        report("torus (paper)", cfg, setup, obs, pid);
        cfg.wrap = false;
        report("plain mesh edges", cfg, setup, obs, pid);
    }

    std::printf("\n(f) trace-driven DSE: replay the 3x3 AV WL-Dep "
                "activity trace recorded\n    from the full-SoC model "
                "onto the behavioral engine, sweeping the\n    "
                "random-pairing period:\n");
    {
        soc::PmConfig pm;
        pm.kind = soc::PmKind::BlitzCoin;
        pm.budgetMw = 60.0;
        soc::Soc s(soc::make3x3AvSoc(), pm, 11);
        auto st = s.run(soc::avDependent(s.config(), 3));
        std::printf("    trace: %zu edges over %.0f us\n",
                    st.activity.size(),
                    sim::ticksToUs(st.activity.horizon()));
        for (unsigned period : {4u, 16u, 64u}) {
            coin::EngineConfig cfg;
            cfg.pairing.period = period;
            coin::MeshSim mesh(
                noc::Topology(s.config().width, s.config().height,
                              true),
                cfg, 11);
            // Seed the same coin pool the 60 mW SoC domain carries.
            mesh.randomizeHas(s.pm().scale().poolCoins);
            auto rs = st.activity.replayOn(mesh);
            std::printf("    period %2u: busy %5.1f%%  %8llu pkts  "
                        "final maxErr %.2f\n",
                        period, rs.busyFraction * 100.0,
                        static_cast<unsigned long long>(rs.packets),
                        rs.finalMaxError);
        }
    }

    std::printf("\n(e) 4-way arithmetic pipeline cost:\n");
    for (sim::Tick extra : {0u, 4u, 16u}) {
        coin::EngineConfig cfg = base;
        cfg.mode = coin::ExchangeMode::FourWay;
        cfg.fourWayExtraCycles = extra;
        char label[64];
        std::snprintf(label, sizeof label, "4-way +%llu cycles",
                      static_cast<unsigned long long>(extra));
        report(label, cfg, setup, obs, pid);
    }
    obs.finish();
    return 0;
}
