/**
 * @file
 * Packet-accurate scaling validation (extension to Fig. 21).
 *
 * The paper's sqrt(N) claim is established with the behavioral
 * emulator and spot-checked on the small fabricated SoC. Here the
 * *full hardware model* — BlitzCoin FSMs exchanging routed packets
 * with per-link contention — is swept across synthetic d x d SoCs up
 * to 99 managed accelerators, measuring the settle time of a global
 * demand change. The cycle cost of real routing, link serialization
 * and FSM handshakes must not break the sub-linear scaling.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "bench_obs.hpp"
#include "bench_soc_common.hpp"
#include "blitzcoin/unit.hpp"
#include "coin/neighborhood.hpp"
#include "sweep/sweep.hpp"

using namespace blitz;

namespace {

/** One settle run plus its optional observability capture. */
struct SettleResult
{
    double us = -1.0;
    bench::ObsCapture obs;
};

/**
 * Settle time of a demand spike on a d x d all-managed cluster;
 * @p pid is the run's trace process lane.
 */
SettleResult
settleRun(int d, std::uint64_t seed, const bench::ObsFlags &flags,
          std::uint32_t pid,
          coin::ExchangeMode mode = coin::ExchangeMode::OneWay)
{
    sim::EventQueue eq;
    noc::Topology topo(d, d, false);
    noc::Network net(eq, topo);
    std::vector<std::unique_ptr<blitzcoin::BlitzCoinUnit>> units;
    std::vector<bool> managed(topo.size(), true);
    auto hoods = coin::managedNeighborhoods(topo, managed);
    blitzcoin::UnitConfig ucfg;
    ucfg.mode = mode;
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        units.push_back(std::make_unique<blitzcoin::BlitzCoinUnit>(
            eq, net, id, ucfg, hoods[id], seed * 1000 + id));
        net.setHandler(id, [&units, id](const noc::Packet &pkt) {
            units[id]->handlePacket(pkt);
        });
    }
    // Fig. 3's exact setup at packet accuracy: every tile active with
    // equal demand, the coin pool parked on a random quarter of the
    // mesh (where the previous workload ran).
    sim::Rng rng(seed);
    std::vector<coin::Coins> has(topo.size(), 0);
    {
        noc::Topology wrapped(d, d, true);
        auto center = static_cast<noc::NodeId>(rng.below(topo.size()));
        noc::Coord cc = wrapped.coordOf(center);
        int r = std::max(d / 4, 1);
        for (coin::Coins c = 0; c < 8 * d * d; ++c) {
            noc::Coord at{
                (cc.x + static_cast<int>(rng.range(-r, r)) + d) % d,
                (cc.y + static_cast<int>(rng.range(-r, r)) + d) % d};
            ++has[wrapped.idOf(at)];
        }
    }
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        units[id]->setMax(16);
        units[id]->setHas(has[id]);
        units[id]->start();
    }
    sim::Tick t0 = eq.now();

    auto error = [&units, d] {
        coin::Coins th = 0, tm = 0;
        for (auto &u : units) {
            th += u->has();
            tm += u->max();
        }
        double alpha = static_cast<double>(th) /
                       static_cast<double>(tm);
        double sum = 0.0;
        for (auto &u : units) {
            sum += std::abs(static_cast<double>(u->has()) -
                            alpha * static_cast<double>(u->max()));
        }
        return sum / static_cast<double>(d * d);
    };

    // Observability rides the existing poll cadence: one metrics
    // snapshot / counter event per 100-tick probe, nothing extra
    // scheduled, so the flags cannot change the settle numbers.
    SettleResult res;
    trace::Registry reg;
    if (flags.metrics) {
        reg.sampled("imbalance_mean", error);
        reg.sampled("exchanges_moved", [&units] {
            double n = 0.0;
            for (auto &u : units)
                n += static_cast<double>(u->exchangesMoved());
            return n;
        });
    }
    trace::Tracer *tracer = res.obs.openTracer(flags, pid);

    while (eq.now() < t0 + 4'000'000) {
        eq.runUntil(eq.now() + 100);
        if (flags.metrics)
            reg.sample(eq.now());
        if (tracer)
            tracer->counter("settle", "imbalance", 0, eq.now(), error());
        if (error() < 1.5) {
            res.us = sim::ticksToUs(eq.now() - t0);
            break;
        }
    }
    if (tracer)
        tracer->complete(
            "settle", "settle_run", 0, t0, eq.now(),
            {{"d", static_cast<std::int64_t>(d)},
             {"seed", static_cast<std::int64_t>(seed)},
             {"settled", static_cast<std::int64_t>(res.us >= 0.0)}});
    if (flags.metrics)
        res.obs.metrics = reg.takeSeries();
    return res; // us stays -1.0 if the mesh did not settle
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs(
        bench::parseObsFlags(argc, argv, bench::kObsMetrics | bench::kObsTrace),
        "bench_hw_scaling");
    bench::banner("HW-model scaling (extension)",
                  "packet-accurate settle time vs SoC size");

    // --metrics/--trace capture rides along per settle run and is
    // absorbed in replication order, so the files are bit-identical at
    // any BLITZ_SWEEP_THREADS; the printed numbers never change.
    auto fold = [&obs](const std::vector<SettleResult> &rs) {
        for (const SettleResult &r : rs)
            obs.absorb(r.obs);
    };

    std::printf("\n%4s %6s | %12s | %10s\n", "d", "N", "settle (us)",
                "us/sqrt(N)");
    // Each (d, seed) settle run is independent; fan the whole grid
    // out over the sweep harness and fold per d in seed order.
    constexpr std::array<int, 5> ds{3, 4, 6, 8, 10};
    constexpr std::size_t seedsPerPoint = 10;
    auto settles = sweep::runSweep(
        ds.size() * seedsPerPoint, /*rootSeed=*/1,
        [&](std::size_t i, std::uint64_t) {
            return settleRun(ds[i / seedsPerPoint],
                             i % seedsPerPoint + 1, obs.flags(),
                             static_cast<std::uint32_t>(i));
        });
    fold(settles);
    std::vector<std::pair<double, double>> samples;
    for (std::size_t k = 0; k < ds.size(); ++k) {
        int d = ds[k];
        sim::Summary s;
        for (std::size_t i = 0; i < seedsPerPoint; ++i) {
            double us = settles[k * seedsPerPoint + i].us;
            if (us >= 0.0)
                s.add(us);
        }
        samples.emplace_back(static_cast<double>(d) * d, s.mean());
        std::printf("%4d %6d | %12.3f | %10.3f\n", d, d * d, s.mean(),
                    s.mean() / d);
    }

    // Sub-linearity check: growing N by ~11x (9 -> 100) should grow
    // the settle time far less than 11x.
    double ratio = samples.back().second / samples.front().second;
    std::printf("\nsettle(N=100) / settle(N=9) = %.1fx for an 11.1x "
                "larger SoC (sqrt predicts 3.3x, linear 11.1x)\n",
                ratio);

    // The packet-level cost of the group datapath: 4-way needs the
    // snapshot locking of Section III-B, and lock contention slows
    // contended reallocation — the paper's argument for 1-way, shown
    // on real packets.
    std::printf("\n1-way vs 4-way at packet level (d = 6):\n");
    constexpr std::array<coin::ExchangeMode, 2> modes{
        coin::ExchangeMode::OneWay, coin::ExchangeMode::FourWay};
    auto modeSettles = sweep::runSweep(
        modes.size() * seedsPerPoint, /*rootSeed=*/2,
        [&](std::size_t i, std::uint64_t) {
            return settleRun(6, i % seedsPerPoint + 1, obs.flags(),
                             1'000 + static_cast<std::uint32_t>(i),
                             modes[i / seedsPerPoint]);
        });
    fold(modeSettles);
    for (std::size_t k = 0; k < modes.size(); ++k) {
        sim::Summary s;
        for (std::size_t i = 0; i < seedsPerPoint; ++i) {
            double us = modeSettles[k * seedsPerPoint + i].us;
            if (us >= 0.0)
                s.add(us);
        }
        std::printf("  %-6s settle %.3f us\n",
                    coin::exchangeModeName(modes[k]), s.mean());
    }
    obs.finish();
    return 0;
}
