/**
 * @file
 * Quickstart: run the BlitzCoin coin-exchange to convergence on a
 * small mesh and watch the ledger settle.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Add --metrics[=path.csv] to record a snapshot of the ledger (per-tile
 * balances, global error, packet counters) every 8 NoC cycles and
 * dump it as CSV — the zero-instrumentation way to watch convergence.
 */

#include <cstdio>
#include <string>

#include "bench_obs.hpp"
#include "coin/engine.hpp"
#include "noc/topology.hpp"
#include "sim/types.hpp"
#include "trace/attach.hpp"

using namespace blitz;

int
main(int argc, char **argv)
{
    // The behavioral MeshSim has no timeline hooks and no health
    // counters: only --metrics applies.
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics), "quickstart");
    // A 4x4 mesh of tiles. Tile targets (max coins) model a mix of
    // small and large accelerators; two tiles are idle (max = 0).
    const noc::Topology topo = noc::Topology::square(4);

    coin::EngineConfig cfg;           // paper defaults:
    cfg.mode = coin::ExchangeMode::OneWay; //  1-way exchange,
    cfg.wrap = true;                  //  wrap-around neighborhoods,
    cfg.backoff.enabled = true;       //  dynamic timing,
    cfg.pairing.randomPairing = true; //  random pairing every 16th.

    trace::Registry reg;
    coin::MeshSim sim(topo, cfg, /*seed=*/42);
    // The 4x4 demo converges in well under 100 cycles — sample densely.
    if (obs.flags().metrics)
        trace::attachMeshMetrics(sim, reg, /*interval=*/8);

    const coin::Coins maxes[16] = {8, 16, 32, 8, 0, 16, 63, 16,
                                   8, 32, 16, 8, 16, 0, 8, 16};
    for (std::size_t i = 0; i < 16; ++i)
        sim.setMax(i, maxes[i]);

    // Scatter a pool worth half the aggregate demand at random.
    sim.randomizeHas(140);

    std::printf("initial  Err = %6.2f coins (alpha = %.3f)\n",
                sim.globalError(), sim.ledger().alpha());

    coin::RunResult r =
        sim.runUntilConverged(/*errThreshold=*/1.0,
                              /*maxTime=*/sim::msToTicks(1.0));

    std::printf("converged: %s after %.2f us "
                "(%llu NoC cycles, %llu packets, %llu exchanges)\n",
                r.converged ? "yes" : "NO",
                sim::ticksToUs(r.time),
                static_cast<unsigned long long>(r.time),
                static_cast<unsigned long long>(r.packets),
                static_cast<unsigned long long>(r.exchanges));
    std::printf("final    Err = %6.2f coins\n\n", sim.globalError());

    std::printf("tile  max  has   has/max\n");
    for (std::size_t i = 0; i < 16; ++i) {
        const auto &t = sim.ledger().tile(i);
        std::printf("%4zu  %3lld  %3lld   %s\n", i,
                    static_cast<long long>(t.max),
                    static_cast<long long>(t.has),
                    t.max ? std::to_string(
                                static_cast<double>(t.has) /
                                static_cast<double>(t.max)).c_str()
                          : "-");
    }
    std::printf("\ntotal coins: %lld (pool was 140; conserved)\n",
                static_cast<long long>(sim.ledger().totalHas()));
    bench::ObsCapture cap;
    cap.metrics = reg.takeSeries();
    obs.absorb(cap);
    obs.finish();
    return 0;
}
