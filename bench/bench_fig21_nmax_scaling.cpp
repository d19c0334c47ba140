/**
 * @file
 * Fig. 21 (and Fig. 1): the scaling study. Fits the tau constants of
 * Equations 5.1-5.3 from response times measured on the simulated
 * SoCs (the paper fits from Figs. 17/18/20 data), then reports:
 *   left:  N_max vs workload phase duration T_w per scheme;
 *   right: fraction of time spent in power management vs N at
 *          T_w = 10 ms.
 *
 * Paper result: BlitzCoin supports 5.7-13.3x more accelerators than
 * BC-C/C-RR and 3.2-6.2x more than TS; ~1000 accelerators at
 * T_w >= 7 ms; 2.0% PM-time at N = 100 / T_w = 10 ms where C-RR needs
 * 96% and BC-C 66%.
 */

#include "analytic/scaling.hpp"
#include "baselines/tokensmart.hpp"
#include "bench_obs.hpp"
#include "bench_soc_common.hpp"
#include "sweep/sweep.hpp"

using namespace blitz;

namespace {

/**
 * One (strategy, design point) full-SoC run. The three design points
 * are 3x3 (N=6, dependent AV workload), 6x6 cluster (N=10), and 4x4
 * (N=13, dependent vision workload) — the same three the paper fits
 * from. @p reg / @p tracer, when set, ride the run via the Soc's own
 * attach points (observed re-runs only; the fitting grid passes null).
 */
std::pair<double, double>
measurePoint(soc::PmKind kind, std::size_t point,
             trace::Registry *reg = nullptr,
             trace::Tracer *tracer = nullptr)
{
    switch (point) {
    case 0: {
        soc::Soc s(soc::make3x3AvSoc(),
                   bench::pm(kind, soc::budgets::av15Percent), 11);
        s.attachMetrics(reg);
        s.attachTrace(tracer);
        auto st = s.run(soc::avDependent(s.config(), 2));
        return {6.0, st.meanResponseUs()};
    }
    case 1: {
        soc::Soc s(soc::make6x6SiliconSoc(),
                   bench::pm(kind, soc::budgets::silicon), 11);
        s.attachMetrics(reg);
        s.attachTrace(tracer);
        auto st = s.run(soc::siliconWorkload(s.config(), 7));
        return {10.0, st.meanResponseUs()};
    }
    default: {
        soc::Soc s(soc::make4x4VisionSoc(),
                   bench::pm(kind, soc::budgets::vision33Percent), 11);
        s.attachMetrics(reg);
        s.attachTrace(tracer);
        auto st = s.run(soc::visionDependent(s.config(), 1));
        return {13.0, st.meanResponseUs()};
    }
    }
}

/** One TS convergence trial on the behavioral ring. */
double
tokenSmartUs(std::size_t n, std::uint64_t seed)
{
    baselines::TokenSmartSim ts(n, baselines::TokenSmartConfig{}, seed);
    for (std::size_t i = 0; i < n; ++i)
        ts.setMax(i, 16);
    ts.randomizeHas(static_cast<coin::Coins>(8 * n));
    auto r = ts.runUntilConverged(1.5, 50'000'000);
    return r.converged ? sim::ticksToUs(r.time) : -1.0;
}

/** One entry of the flattened measurement grid. */
struct Measurement
{
    int series; ///< 0..2: hardware-model strategies; 3: TS ring
    double n;
    double value; ///< response us, or < 0 for a non-converged trial
};

constexpr std::array<soc::PmKind, 3> hwKinds{
    soc::PmKind::BlitzCoin, soc::PmKind::BlitzCoinCentral,
    soc::PmKind::CentralRoundRobin};
constexpr std::array<std::size_t, 5> tsSizes{6, 10, 13, 36, 100};
constexpr std::size_t tsSeeds = 20;
constexpr std::size_t hwTasks = hwKinds.size() * 3;
constexpr std::size_t tsTasks = tsSizes.size() * tsSeeds;

/**
 * All measurements — 9 full-SoC runs and 100 TS trials — fanned out
 * over the sweep harness as one task grid so the slow SoC runs overlap
 * the TS Monte-Carlo. Results come back in index order; the fold below
 * is therefore thread-count independent.
 */
std::vector<Measurement>
measureAll()
{
    return sweep::runSweep(
        hwTasks + tsTasks, /*rootSeed=*/11,
        [](std::size_t i, std::uint64_t) -> Measurement {
            if (i < hwTasks) {
                auto kind = hwKinds[i / 3];
                auto [n, us] = measurePoint(kind, i % 3);
                return {static_cast<int>(i / 3), n, us};
            }
            std::size_t t = i - hwTasks;
            std::size_t n = tsSizes[t / tsSeeds];
            return {3, static_cast<double>(n),
                    tokenSmartUs(n, t % tsSeeds + 1)};
        });
}

/** (N, response us) samples of one hardware-model strategy. */
std::vector<std::pair<double, double>>
samplesFor(const std::vector<Measurement> &all, int series)
{
    std::vector<std::pair<double, double>> samples;
    for (const auto &m : all) {
        if (m.series == series)
            samples.emplace_back(m.n, m.value);
    }
    return samples;
}

/** TS response per ring size, averaged over the converged trials. */
std::vector<std::pair<double, double>>
tokenSmartSamples(const std::vector<Measurement> &all)
{
    std::vector<std::pair<double, double>> samples;
    for (std::size_t n : tsSizes) {
        sim::Summary t;
        for (const auto &m : all) {
            if (m.series == 3 &&
                m.n == static_cast<double>(n) && m.value >= 0.0)
                t.add(m.value);
        }
        samples.emplace_back(static_cast<double>(n), t.mean());
    }
    return samples;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics | bench::kObsTrace),
        "bench_fig21_nmax_scaling");
    bench::banner("Fig. 21 (+Fig. 1)",
                  "fitted scaling laws, N_max(T_w), PM-time fraction");

    using analytic::ScalingLaw;
    using analytic::Scheme;

    auto measurements = measureAll();

    std::vector<ScalingLaw> laws;
    std::printf("\nfitted constants (tau, us):\n");
    const std::array<Scheme, 3> schemes{Scheme::BC, Scheme::BCC,
                                        Scheme::CRR};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        auto law = analytic::fitLaw(
            schemes[s],
            samplesFor(measurements, static_cast<int>(s)));
        std::printf("  tau_%-5s = %.3f us (T ~ N^%.1f)   "
                    "[paper: BC 0.20, BC-C 0.66, C-RR 0.96]\n",
                    analytic::schemeName(schemes[s]), law.tauUs,
                    law.exponent);
        laws.push_back(law);
    }
    laws.push_back(analytic::fitLaw(
        Scheme::TS, tokenSmartSamples(measurements)));
    std::printf("  tau_%-5s = %.3f us (T ~ N^%.1f)   [paper: 0.22]\n",
                "TS", laws.back().tauUs, laws.back().exponent);
    laws.push_back(analytic::priceTheoryLaw());
    std::printf("  tau_%-5s = %.3f us (T ~ N^%.1f)   "
                "[literature, HW-scaled]\n",
                "PT", laws.back().tauUs, laws.back().exponent);

    // ---- left plot: N_max vs T_w ----------------------------------
    std::printf("\nN_max vs workload phase duration T_w:\n%8s |",
                "T_w(ms)");
    for (const auto &law : laws)
        std::printf(" %8s", analytic::schemeName(law.scheme));
    std::printf(" | BC gain over BC-C/C-RR/TS\n");
    for (double tw_ms : {0.2, 1.0, 2.0, 7.0, 10.0, 20.0}) {
        double tw = tw_ms * 1000.0;
        std::printf("%8.1f |", tw_ms);
        for (const auto &law : laws)
            std::printf(" %8.0f", law.nMax(tw));
        std::printf(" | %.1fx / %.1fx / %.1fx\n",
                    laws[0].nMax(tw) / laws[1].nMax(tw),
                    laws[0].nMax(tw) / laws[2].nMax(tw),
                    laws[0].nMax(tw) / laws[3].nMax(tw));
    }

    // ---- right plot: PM-time fraction vs N at T_w = 10 ms ---------
    std::printf("\nPM-time fraction at T_w = 10 ms "
                "(>100%% = cannot keep up):\n%8s |", "N");
    for (const auto &law : laws)
        std::printf(" %8s", analytic::schemeName(law.scheme));
    std::printf("\n");
    for (double n : {10.0, 30.0, 100.0, 300.0, 1000.0}) {
        std::printf("%8.0f |", n);
        for (const auto &law : laws)
            std::printf(" %7.1f%%",
                        law.pmTimeFraction(n, 10000.0) * 100.0);
        std::printf("\n");
    }

    // ---- Fig. 1 view: response time vs the T_w/N demand curve -----
    std::printf("\nFig. 1 crossovers: response T(N) vs demand T_w/N "
                "(us), T_w = 5 ms:\n%8s | %10s %10s %10s | %10s\n",
                "N", "BC", "BC-C", "C-RR", "T_w/N");
    for (double n : {10.0, 50.0, 100.0, 500.0, 1000.0}) {
        std::printf("%8.0f | %10.2f %10.2f %10.2f | %10.2f\n", n,
                    laws[0].responseUs(n), laws[1].responseUs(n),
                    laws[2].responseUs(n), 5000.0 / n);
    }
    std::printf("\nShape check: BC's curve crosses the demand line at "
                "far larger N than the centralized schemes.\n");

    // --metrics/--trace: re-run the three BlitzCoin design points with
    // the Soc's observability plane attached (the fitting grid above
    // runs bare, so the fitted constants never change). Each point has
    // its own per-tile metric schema, hence one tagged CSV per point;
    // the trace gets one process lane per point.
    if (obs.flags().any()) {
        static const char *tags[3] = {"av3x3", "silicon6x6",
                                      "vision4x4"};
        for (std::size_t p = 0; p < 3; ++p) {
            bench::ObsCapture cap;
            trace::Registry reg;
            measurePoint(soc::PmKind::BlitzCoin, p,
                         obs.flags().metrics ? &reg : nullptr,
                         cap.openTracer(obs.flags(),
                                        static_cast<std::uint32_t>(p)));
            cap.metrics = reg.takeSeries();
            obs.absorb(cap, tags[p]);
        }
    }
    obs.finish();
    return 0;
}
