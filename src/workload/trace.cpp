#include "trace.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace blitz::workload {

void
ActivityTrace::record(sim::Tick when, std::uint32_t tile, bool active)
{
    if (!events_.empty() && when < events_.back().when)
        sim::fatal("trace edges must be recorded in time order");
    events_.push_back(PhaseEvent{when, tile, active});
}

void
ActivityTrace::setTargetCoins(std::uint32_t tile, coin::Coins target)
{
    BLITZ_ASSERT(target > 0, "target coins must be positive");
    if (targets_.size() <= tile)
        targets_.resize(tile + 1, 16);
    targets_[tile] = target;
}

sim::Tick
ActivityTrace::horizon() const
{
    return events_.empty() ? 0 : events_.back().when;
}

std::uint32_t
ActivityTrace::maxTile() const
{
    std::uint32_t top = 0;
    for (const PhaseEvent &e : events_)
        top = std::max(top, e.tile);
    return top;
}

ActivityTrace
ActivityTrace::fromGenerator(PhaseGenerator &gen, sim::Tick horizon)
{
    ActivityTrace trace;
    // Initial state edges at t=0 for tiles that start active.
    const auto &initial = gen.initialActive();
    for (std::uint32_t i = 0; i < initial.size(); ++i) {
        if (initial[i])
            trace.record(0, i, true);
    }
    for (const PhaseEvent &e : gen.generate(horizon))
        trace.events_.push_back(e);
    return trace;
}

ActivityTrace::ReplayStats
ActivityTrace::replayOn(coin::MeshSim &sim, sim::Tick samplePeriod) const
{
    BLITZ_ASSERT(sim.ledger().size() > maxTile(),
                 "replay mesh smaller than the trace's tile range");
    BLITZ_ASSERT(samplePeriod > 0, "sample period must be positive");

    const std::uint64_t packets0 = sim.totalPackets();
    const std::uint64_t exchanges0 = sim.totalExchanges();

    auto target_of = [this](std::uint32_t tile) {
        return tile < targets_.size() ? targets_[tile]
                                      : coin::Coins{16};
    };

    std::size_t next = 0;
    std::uint64_t samples = 0, busy = 0;
    const sim::Tick end = horizon() + samplePeriod;
    while (sim.now() < end) {
        while (next < events_.size() &&
               events_[next].when <= sim.now()) {
            const PhaseEvent &e = events_[next];
            sim.setMax(e.tile,
                       e.startsExecution ? target_of(e.tile) : 0);
            ++next;
        }
        sim.runFor(samplePeriod);
        ++samples;
        busy += sim.maxError() > 2.0 ? 1 : 0;
    }

    ReplayStats stats;
    stats.packets = sim.totalPackets() - packets0;
    stats.exchanges = sim.totalExchanges() - exchanges0;
    stats.busyFraction = samples == 0
                             ? 0.0
                             : static_cast<double>(busy) /
                                   static_cast<double>(samples);
    // With every tile idle there is no distribution to be wrong about
    // (coins park wherever the last task left them).
    stats.finalMaxError =
        sim.ledger().totalMax() == 0 ? 0.0 : sim.maxError();
    return stats;
}

} // namespace blitz::workload
