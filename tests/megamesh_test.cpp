/**
 * @file
 * Mega-mesh smoke suite (`ctest -L megamesh`, megamesh preset): the
 * 100x100 (10,000 node) configurations from the scaling study, run at
 * small horizons so they ride in tier-1. These pin two properties the
 * mega-mesh hot path must keep: routed steady-state traffic completes
 * and reaches most of the mesh, and coin diffusion makes monotone
 * progress at 10^4 tiles.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "coin/engine.hpp"
#include "noc/network.hpp"

namespace {

using namespace blitz;

/** Self-rescheduling xorshift traffic source (bench_ops shape). */
struct Sender
{
    noc::Network *net;
    sim::EventQueue *eq;
    noc::NodeId src;
    std::uint32_t state;
    std::uint32_t nodes;
    sim::Tick period;

    void
    operator()() const
    {
        std::uint32_t x = state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        noc::Packet p;
        p.src = src;
        p.dst = static_cast<noc::NodeId>(x % nodes);
        p.type = noc::MsgType::Generic;
        p.payload[0] = x;
        net->send(p);
        Sender next = *this;
        next.state = x;
        eq->scheduleIn(period, next);
    }
};

constexpr int kDim = 100;
constexpr sim::Tick kHorizon = 4096; // small: this rides in tier-1
constexpr noc::NodeId kSenderStride = 16;

/**
 * Per-node delivery digests after a fixed-horizon 100x100 run: an FNV
 * fold of (tick, src, payload) in arrival order per node.
 */
std::vector<std::uint64_t>
runDigest(std::uint64_t *delivered)
{
    sim::EventQueue eq;
    noc::Topology topo(kDim, kDim, false);
    noc::Network net(eq, topo);
    const auto n = static_cast<std::uint32_t>(topo.size());
    std::vector<std::uint64_t> d(n, 1469598103934665603ull);
    std::uint64_t *op = d.data();
    sim::EventQueue *ep = &eq;
    for (noc::NodeId id = 0; id < n; ++id) {
        net.setHandler(id, [op, ep, id](const noc::Packet &p) {
            std::uint64_t h = op[id];
            h = (h ^ ep->now()) * 1099511628211ull;
            h = (h ^ p.src) * 1099511628211ull;
            h = (h ^ p.payload[0]) * 1099511628211ull;
            op[id] = h;
        });
    }
    for (noc::NodeId id = 0; id < n; id += kSenderStride)
        eq.schedule(1 + (id % 29),
                    Sender{&net, &eq, id, 0x9e3779b9u + id, n, 64});
    eq.runUntil(kHorizon);
    *delivered = net.packetsDelivered();
    return d;
}

TEST(Megamesh, NocSteady100x100Smoke)
{
    std::uint64_t delivered = 0;
    const auto digest = runDigest(&delivered);
    // 625 sources injecting every 64 ticks for 4096 ticks: tens of
    // thousands of routed deliveries even after subtracting packets
    // still in flight at the horizon.
    EXPECT_GT(delivered, 20'000u);
    std::size_t touched = 0;
    for (std::uint64_t h : digest)
        touched += h != 1469598103934665603ull;
    // Destinations are xorshift-uniform over all 10,000 nodes.
    EXPECT_GT(touched, 5'000u);
}

TEST(Megamesh, Diffusion100x100MakesProgress)
{
    // Behavioral engine at 10^4 tiles: from the standard half-demand
    // provisioning, mean coin error must fall monotonically-ish over
    // a short horizon (full convergence is the analytic_vs_sim run).
    coin::MeshSim sim(noc::Topology::square(kDim),
                      coin::EngineConfig{}, 7);
    coin::Coins demand = 0;
    for (std::size_t t = 0; t < sim.ledger().size(); ++t) {
        const coin::Coins m = 8 << (t % 3);
        sim.setMax(t, m);
        demand += m;
    }
    sim.clusterHas(demand / 2);
    const double e0 = sim.globalError();
    // Threshold 0 can never be met, so these run to the horizon.
    sim.runUntilConverged(0.0, 1000);
    const double e1 = sim.globalError();
    sim.runUntilConverged(0.0, 2000);
    const double e2 = sim.globalError();
    EXPECT_LT(e1, e0 * 0.8) << "no early diffusion progress";
    EXPECT_LT(e2, e1) << "diffusion stalled";
}

} // namespace
