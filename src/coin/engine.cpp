#include "engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "trace/metrics.hpp"

namespace blitz::coin {

const char *
exchangeModeName(ExchangeMode m)
{
    switch (m) {
      case ExchangeMode::OneWay:  return "1-way";
      case ExchangeMode::FourWay: return "4-way";
    }
    return "?";
}

MeshSim::MeshSim(const noc::Topology &topo, const EngineConfig &cfg,
                 std::uint64_t seed)
    : topo_(topo.width(), topo.height(), cfg.wrap), cfg_(cfg), rng_(seed),
      ledger_(topo_.size()), firings_(topo_.size())
{
    BLITZ_ASSERT(cfg_.thermalCaps.empty() ||
                 cfg_.thermalCaps.size() == topo_.size(),
                 "thermal cap list size mismatch");
    timers_.reserve(topo_.size());
    selectors_.reserve(topo_.size());
    iso_.resize(topo_.size());
    for (noc::NodeId i = 0; i < topo_.size(); ++i) {
        timers_.emplace_back(cfg_.backoff);
        selectors_.emplace_back(topo_, i, cfg_.pairing, rng_);
        // Stagger initial firings across one base interval so the mesh
        // does not act in lockstep.
        firings_.schedule(i, 1 + rng_.below(cfg_.backoff.baseInterval));
    }
}

Coins
MeshSim::capOf(std::size_t i) const
{
    return cfg_.thermalCaps.empty() ? uncapped : cfg_.thermalCaps[i];
}

Coins
MeshSim::neighborhoodCoins(std::size_t i) const
{
    Coins sum = ledger_.has(i);
    for (noc::NodeId n : selectors_[i].neighbors())
        sum += ledger_.has(n);
    return sum;
}

Coins
MeshSim::effectiveCap(std::size_t i) const
{
    Coins cap = capOf(i);
    if (cfg_.neighborhoodCap == uncapped)
        return cap;
    // Acceptance headroom of the 5-tile cross, expressed as the
    // largest holding this tile may grow to without breaching the
    // group cap.
    Coins group_room =
        cfg_.neighborhoodCap - (neighborhoodCoins(i) - ledger_.has(i));
    return std::min(cap, std::max<Coins>(group_room, 0));
}

void
MeshSim::rebuildError() const
{
    errStale_ = false;
    alpha_ = ledger_.alpha();
    errSum_ = 0.0;
    for (std::size_t i = 0; i < ledger_.size(); ++i) {
        errSum_ += std::abs(
            static_cast<double>(ledger_.has(i)) -
            alpha_ * static_cast<double>(ledger_.max(i)));
    }
}

double
MeshSim::globalError() const
{
    if (errStale_)
        rebuildError();
    return errSum_ / static_cast<double>(ledger_.size());
}

void
MeshSim::setMax(std::size_t i, Coins max)
{
    ledger_.setMax(i, max);
    errStale_ = true; // alpha changed; all contributions shift
    timers_[i].resetOnActivity();
    // An activity change triggers an immediate status update from the
    // affected tile (the start/end of execution drives the request or
    // relinquishment of coins, Section III-A).
    firings_.schedule(static_cast<std::uint32_t>(i), now_ + 1);
}

void
MeshSim::setHas(std::size_t i, Coins has)
{
    ledger_.setHas(i, has);
    errStale_ = true;
}

void
MeshSim::randomizeHas(Coins pool)
{
    BLITZ_ASSERT(pool >= 0, "coin pool cannot be negative");
    for (Coins c = 0; c < pool; ++c) {
        auto i = static_cast<std::size_t>(rng_.below(ledger_.size()));
        ledger_.setHas(i, ledger_.has(i) + 1);
    }
    errStale_ = true;
}

void
MeshSim::clusterHas(Coins pool)
{
    BLITZ_ASSERT(pool >= 0, "coin pool cannot be negative");
    // Random center; coins land uniformly within a Chebyshev radius
    // of ~d/4 around it (wrapping), i.e. about a quarter of the mesh.
    noc::Topology wrapped(topo_.width(), topo_.height(), true);
    const auto center =
        static_cast<noc::NodeId>(rng_.below(topo_.size()));
    const noc::Coord cc = wrapped.coordOf(center);
    const int rx = std::max(topo_.width() / 4, 1);
    const int ry = std::max(topo_.height() / 4, 1);
    for (Coins c = 0; c < pool; ++c) {
        int dx = static_cast<int>(rng_.range(-rx, rx));
        int dy = static_cast<int>(rng_.range(-ry, ry));
        noc::Coord at{(cc.x + dx + topo_.width()) % topo_.width(),
                      (cc.y + dy + topo_.height()) % topo_.height()};
        auto i = static_cast<std::size_t>(wrapped.idOf(at));
        ledger_.setHas(i, ledger_.has(i) + 1);
    }
    errStale_ = true;
}

void
MeshSim::drainSamples(sim::Tick upTo)
{
    // State is piecewise constant between firings, so the registers at
    // each cadence boundary the run crossed are exactly the current
    // ones; emit each due snapshot at its nominal tick.
    while (nextSample_ <= upTo) {
        metrics_->sample(nextSample_);
        nextSample_ += sampleEvery_;
    }
}

Coins
MeshSim::doPairwise(std::uint32_t i, std::uint32_t j)
{
    const double err_i = std::abs(
        static_cast<double>(ledger_.has(i)) -
        alpha_ * static_cast<double>(ledger_.max(i)));
    const double err_j = std::abs(
        static_cast<double>(ledger_.has(j)) -
        alpha_ * static_cast<double>(ledger_.max(j)));

    Coins delta = pairwiseDelta(ledger_.tile(i), ledger_.tile(j),
                                effectiveCap(i), effectiveCap(j));
    if (delta != 0)
        ledger_.transfer(i, j, delta);

    errSum_ -= err_i + err_j;
    errSum_ += std::abs(static_cast<double>(ledger_.has(i)) -
                        alpha_ * static_cast<double>(ledger_.max(i)));
    errSum_ += std::abs(static_cast<double>(ledger_.has(j)) -
                        alpha_ * static_cast<double>(ledger_.max(j)));
    return std::llabs(delta);
}

Coins
MeshSim::doFourWay(std::uint32_t center,
                   const std::vector<noc::NodeId> &members)
{
    std::vector<TileCoins> &group = groupScratch_;
    std::vector<Coins> &caps = capsScratch_;
    group.clear();
    caps.clear();
    group.reserve(members.size() + 1);
    group.push_back(ledger_.tile(center));
    caps.push_back(effectiveCap(center));
    for (noc::NodeId n : members) {
        group.push_back(ledger_.tile(n));
        caps.push_back(effectiveCap(n));
    }

    const bool capped = !cfg_.thermalCaps.empty() ||
                        cfg_.neighborhoodCap != uncapped;
    std::array<Coins, kMaxGroupSize> split{};
    groupSplit(group,
               capped ? std::span<const Coins>(caps)
                      : std::span<const Coins>{},
               std::span(split).first(group.size()));

    Coins moved = 0;
    for (std::size_t k = 0; k < members.size(); ++k) {
        Coins delta = split[k + 1] - ledger_.has(members[k]);
        if (delta != 0) {
            ledger_.transfer(center, members[k], delta);
            moved += std::llabs(delta);
        }
    }
    rebuildError(); // alpha is unchanged but up to 5 tiles moved
    return moved;
}

sim::Tick
MeshSim::fire(std::uint32_t tile)
{
    sim::Tick completion;
    Coins moved;
    if (cfg_.mode == ExchangeMode::OneWay) {
        noc::NodeId partner = selectors_[tile].next(isolated(tile));
        const auto dist = static_cast<sim::Tick>(
            topo_.distance(tile, partner));
        // status hop(s) + FSM compute + update hop(s)
        completion = now_ + dist * cfg_.hopCycles + cfg_.fsmCycles +
                     dist * cfg_.hopCycles;
        if (cfg_.lossRate > 0.0 && rng_.chance(cfg_.lossRate)) {
            // The status leg was lost: no rebalance ran anywhere. The
            // initiator times out, backs off, and refires later.
            ++losses_;
            packets_ += 1;
            timers_[tile].onExchange(false);
            completion = now_ + cfg_.lossRecoveryCycles;
            firings_.schedule(tile,
                              completion +
                                  timers_[tile].intervalFor(
                                      discontent(tile) || isolated(tile)));
            return completion;
        }
        bool updateLost =
            cfg_.lossRate > 0.0 && rng_.chance(cfg_.lossRate);
        if (updateLost) {
            // The update leg was lost: the partner's half already ran
            // and reconciliation replays the delta to the initiator —
            // same arithmetic, so the atomic ledger transfer below is
            // exactly the recovered outcome; only time and packets are
            // spent (timeout + probe + replayed update).
            ++losses_;
            packets_ += 2;
            completion += cfg_.lossRecoveryCycles;
        }
        packets_ += 2;
        moved = doPairwise(tile, partner);
        timers_[partner].onExchange(moved != 0);
        iso_[tile].onExchange(moved != 0, ledger_.max(partner));
        iso_[partner].onExchange(moved != 0, ledger_.max(tile));
        // Wake the partner at its (now shortened) cadence so the
        // reallocation wave propagates instead of waiting out a
        // backed-off interval.
        if (moved != 0)
            firings_.schedule(partner,
                              completion +
                                  timers_[partner].intervalFor(
                                      discontent(partner) ||
                                      isolated(partner)));
    } else {
        // request + status + update to each of the (up to) 4 neighbors;
        // neighbor hops are distance 1 by construction.
        const auto &all = selectors_[tile].neighbors();
        std::vector<noc::NodeId> &survivors = survivorScratch_;
        survivors.clear();
        const std::vector<noc::NodeId> *members = &all;
        if (cfg_.lossRate > 0.0) {
            // A lost request or status leg excludes that member from
            // the round (the center completes with whoever replied,
            // exactly as the packet model does).
            survivors.reserve(all.size());
            for (noc::NodeId n : all) {
                if (rng_.chance(cfg_.lossRate))
                    ++losses_;
                else
                    survivors.push_back(n);
            }
            members = &survivors;
        }
        const auto fan = static_cast<sim::Tick>(all.size());
        completion = now_ + 3 * cfg_.hopCycles + cfg_.fsmCycles +
                     cfg_.fourWayExtraCycles;
        packets_ += 3 * fan;
        moved = doFourWay(tile, *members);
        for (noc::NodeId n : *members) {
            timers_[n].onExchange(moved != 0);
            if (moved != 0)
                firings_.schedule(n, completion +
                                         timers_[n].intervalFor(
                                             discontent(n) || isolated(n)));
        }
    }
    ++exchanges_;
    timers_[tile].onExchange(moved != 0);
    firings_.schedule(tile,
                      completion + timers_[tile].intervalFor(
                                       discontent(tile) || isolated(tile)));
    return completion;
}

std::optional<sim::Tick>
MeshSim::drain(sim::Tick limit, std::optional<double> stopBelow)
{
    // The queue holds one firing per tile, so the top entry is always
    // live: fire it where it sits and let fire() re-key it.
    while (firings_.topWhen() <= limit) {
#ifndef NDEBUG
        const std::uint64_t key = firings_.topKey();
#endif
        const sim::Tick when = firings_.topWhen();
        if (metrics_)
            drainSamples(when);
        now_ = when;
        const sim::Tick completion = fire(firings_.topTile());
#ifndef NDEBUG
        // A firing that left its tile's key alone would spin forever.
        BLITZ_ASSERT(firings_.topKey() != key,
                     "firing at tick ", when, " did not reschedule its tile");
#endif
        if (stopBelow && globalError() < *stopBelow)
            return completion;
    }
    return std::nullopt;
}

RunResult
MeshSim::runUntilConverged(double errThreshold, sim::Tick maxTime)
{
    RunResult result;
    const std::uint64_t packets0 = packets_;
    const std::uint64_t exchanges0 = exchanges_;

    if (globalError() < errThreshold) {
        result.converged = true;
        result.time = now_;
        return result;
    }

    if (std::optional<sim::Tick> done = drain(maxTime, errThreshold)) {
        result.converged = true;
        result.time = *done;
    } else {
        now_ = std::min(maxTime, now_);
        result.time = now_;
    }
    if (metrics_)
        drainSamples(now_);
    result.packets = packets_ - packets0;
    result.exchanges = exchanges_ - exchanges0;
    return result;
}

RunResult
MeshSim::runFor(sim::Tick duration)
{
    RunResult result;
    const std::uint64_t packets0 = packets_;
    const std::uint64_t exchanges0 = exchanges_;
    const sim::Tick deadline = now_ + duration;
    if (errStale_)
        rebuildError();

    drain(deadline, std::nullopt);
    now_ = deadline;
    if (metrics_)
        drainSamples(deadline);
    result.time = now_;
    result.packets = packets_ - packets0;
    result.exchanges = exchanges_ - exchanges0;
    return result;
}

} // namespace blitz::coin
