/**
 * @file
 * Physics-plane sweep: thermal-emergency and brownout response with
 * the throttler enforced vs merely observed (DESIGN.md ch.9,
 * EXPERIMENTS.md).
 *
 * Thermal-emergency rows run a 3x3 AV SoC under BlitzCoin with a fast
 * thermal path (tau = 300 us) and a per-tile trip band swept across
 * the budgeted steady-state temperature. Observe rows attach the
 * plane with enforcement off, so the peak junction temperature shows
 * the uncontrolled overshoot; enforce rows arm the arbiter, which
 * must hold the peak near the trip while the workload still
 * completes. Brownout rows put every accelerator on one shared
 * regulator rail and sweep its current limit below the budget's
 * draw; the latch clamps the members and sags their supplies.
 *
 * `leaks` counts trials where the cluster's coin total diverged from
 * the provisioned pool — the throttler clamps frequencies *after* the
 * coin allocation, so any nonzero count is a protocol violation, not
 * a tuning artifact. Output is bit-identical for any
 * BLITZ_SWEEP_THREADS setting (ordered fold over streamSeed-derived
 * trials).
 *
 * `--metrics[=path]` / `--trace[=path]` / `--health[=path]` opt into
 * the observability plane (see bench_obs.hpp); without the flags the
 * printed numbers are byte-identical to a flag-free run.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "soc/throttler.hpp"
#include "sweep/sweep.hpp"

using namespace blitz;

namespace {

/** Aggregate over one scenario's replications. */
struct Row
{
    sim::Percentiles execUs;
    sim::Summary peakC;      ///< hottest junction seen in the run
    sim::Summary engages;    ///< arbiter cap engagements
    sim::Summary railPeakMa; ///< peak current on the shared rail
    int failures = 0;        ///< trials missing completion
    int leaks = 0;           ///< coin-conservation violations
    bench::ObsCapture obs;

    void
    merge(Row &&o)
    {
        execUs.merge(o.execUs);
        peakC.merge(o.peakC);
        engages.merge(o.engages);
        railPeakMa.merge(o.railPeakMa);
        failures += o.failures;
        leaks += o.leaks;
        obs.merge(std::move(o.obs));
    }
};

Row
runTrial(const soc::PhysicsConfig &phys, std::uint64_t seed,
         const bench::ObsFlags &flags, std::uint32_t pid)
{
    // Registry/tracer must outlive the Soc (samplers read its state
    // until the event queue dies).
    Row r;
    trace::Registry reg;
    soc::PmConfig pm;
    pm.kind = soc::PmKind::BlitzCoin;
    pm.budgetMw = soc::budgets::av30Percent;
    soc::Soc s(soc::make3x3AvSoc(), pm, seed);
    soc::PhysicsPlane plane(phys);
    s.attachPhysics(plane);
    if (flags.metrics)
        s.attachMetrics(&reg);
    s.attachTrace(r.obs.openTracer(flags, pid));

    const auto st = s.run(soc::avParallel(s.config()));

    if (st.completed)
        r.execUs.add(st.execTimeUs());
    else
        ++r.failures;
    r.peakC.add(plane.peakTempC());
    r.engages.add(static_cast<double>(plane.arbiter().engages()));
    r.railPeakMa.add(plane.rails().size() > 0 ? plane.rails().peakMa(0)
                                              : 0.0);
    auto &bc = dynamic_cast<soc::BlitzCoinPm &>(s.pm());
    if (bc.clusterCoins() != bc.scale().poolCoins)
        ++r.leaks;
    if (flags.metrics)
        r.obs.metrics = reg.takeSeries();
    if (flags.health)
        s.fillHealth(r.obs.health);
    return r;
}

soc::PhysicsConfig
thermalEmergency(double tripC, bool enforce)
{
    soc::PhysicsConfig phys;
    phys.thermal.node.cJPerC = 1e-6; // tau = 300 us
    phys.trip.tripC = tripC;
    phys.trip.releaseC = tripC - 0.5;
    phys.trip.capFraction = 0.4;
    phys.enforce = enforce;
    return phys;
}

soc::PhysicsConfig
brownout(double limitMa, bool enforce)
{
    soc::PhysicsConfig phys;
    soc::RailSpec spec; // ~141 mA demand at the 120 mW budget
    spec.rail.vNominal = 0.85;
    spec.rail.limitMa = limitMa;
    spec.rail.releaseFraction = 0.6;
    spec.capFraction = 0.4;
    spec.droopV = 0.05;
    phys.rails.push_back(spec);
    phys.enforce = enforce;
    return phys;
}

void
printRow(const char *kind, double param, bool enforce, Row &row)
{
    const bool any = row.execUs.count() > 0;
    std::printf("%-9s %8.1f %8s | %9.1f %6d | %8.2f %8.1f %9.1f %6d\n",
                kind, param, enforce ? "on" : "off",
                any ? row.execUs.median() : 0.0, row.failures,
                row.peakC.mean(), row.engages.mean(),
                row.railPeakMa.mean(), row.leaks);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(bench::parseObsFlags(argc, argv, bench::kObsAll),
                          "bench_thermal");
    bench::banner("Physics sweep",
                  "thermal-emergency and brownout response, throttler "
                  "enforced vs observed");
    std::printf("%-9s %8s %8s | %9s %6s | %8s %8s %9s %6s\n", "kind",
                "param", "throttle", "exec p50", "missed", "peak C",
                "engages", "rail mA", "leaks");

    constexpr std::size_t trials = 6;
    constexpr std::uint64_t rootSeed = 2054;

    // One trace / health file for the whole run; metrics CSVs are
    // per scenario (the snapshot schema is shared here, but keeping
    // the bench_chaos convention makes the files self-describing).
    std::uint64_t scenarioIdx = 0;
    auto runOne = [&](const char *kind, double param, bool enforce,
                      const soc::PhysicsConfig &phys) {
        Row acc;
        acc.execUs.reserve(trials);
        Row row = obs.sweepFold(
            trials, sweep::streamSeed(rootSeed, scenarioIdx),
            std::move(acc), [&](std::uint64_t seed, std::uint32_t pid) {
                return runTrial(phys, seed, obs.flags(), pid);
            });
        printRow(kind, param, enforce, row);
        char tag[48];
        std::snprintf(tag, sizeof tag, "s%02u-%s",
                      static_cast<unsigned>(scenarioIdx), kind);
        obs.absorb(row.obs, tag);
        ++scenarioIdx;
    };
    for (double tripC : {48.0, 50.0, 52.0})
        for (bool enforce : {false, true})
            runOne("thermal", tripC, enforce,
                   thermalEmergency(tripC, enforce));
    for (double limitMa : {120.0, 100.0, 80.0})
        for (bool enforce : {false, true})
            runOne("brownout", limitMa, enforce,
                   brownout(limitMa, enforce));
    obs.finish();
    std::printf("\nObserve rows integrate the same physics without "
                "actuating, so their peak C column is the uncontrolled "
                "overshoot; enforce rows hold the peak near the trip "
                "band at some cost in execution time. A nonzero leaks "
                "column would be a coin-conservation violation.\n");
    return 0;
}
