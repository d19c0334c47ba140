/**
 * @file
 * The paper's motivating scenario: the 3x3 autonomous-vehicle SoC
 * (3 FFT depth-estimation tiles, 2 Viterbi V2V decoders, 1 NVDLA)
 * running the dependent mini-ERA pipeline under a 60 mW cap.
 *
 * Compares fully-decentralized BlitzCoin against the centralized
 * round-robin baseline: same workload, same budget, different
 * power-management response — BlitzCoin finishes sooner because power
 * freed by a completing task reaches the still-running tiles in under
 * a microsecond.
 */

#include <cstdio>

#include "bench_obs.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"

using namespace blitz;

namespace {

/**
 * With --metrics / --trace the run is observed: power and coin
 * snapshots every 256 NoC cycles into a per-PM CSV, and the full PM
 * timeline into one Chrome trace with a process lane per PM kind —
 * open it in Perfetto to see the three managers' reactions side by
 * side. The flags never change the printed table.
 */
soc::SocRunStats
runWith(soc::PmKind kind, double budgetMw, bench::ObsSession &obs,
        std::uint32_t pid)
{
    soc::PmConfig pm;
    pm.kind = kind;
    pm.alloc = coin::AllocPolicy::RelativeProportional;
    pm.budgetMw = budgetMw;

    bench::ObsCapture cap;
    trace::Registry reg;
    soc::Soc s(soc::make3x3AvSoc(), pm, /*seed=*/7);
    if (obs.flags().metrics)
        s.attachMetrics(&reg, /*interval=*/256);
    s.attachTrace(cap.openTracer(obs.flags(), pid));
    workload::Dag dag = soc::avDependent(s.config(), /*frames=*/3);
    soc::SocRunStats st = s.run(dag);
    cap.metrics = reg.takeSeries();
    obs.absorb(cap, soc::pmKindName(kind));
    return st;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics | bench::kObsTrace),
        "autonomous_vehicle");
    const double budget = soc::budgets::av15Percent; // 60 mW

    std::printf("3x3 AV SoC, WL-Dep (3 frames), budget %.0f mW\n\n",
                budget);
    std::printf("%-6s %12s %14s %14s %10s %10s\n", "PM", "exec (us)",
                "response (us)", "avg pwr (mW)", "util", "packets");

    std::uint32_t pid = 0;
    for (soc::PmKind kind : {soc::PmKind::BlitzCoin,
                             soc::PmKind::BlitzCoinCentral,
                             soc::PmKind::CentralRoundRobin}) {
        soc::SocRunStats st = runWith(kind, budget, obs, pid++);
        std::printf("%-6s %12.1f %14.3f %14.1f %9.1f%% %10llu%s\n",
                    soc::pmKindName(kind), st.execTimeUs(),
                    st.meanResponseUs(),
                    st.trace->averageTotalMw(),
                    st.trace->budgetUtilization() * 100.0,
                    static_cast<unsigned long long>(st.nocPackets),
                    st.completed ? "" : "  (INCOMPLETE)");
    }
    obs.finish();
    return 0;
}
