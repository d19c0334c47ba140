#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "pm_impl.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace blitz::soc {

BlitzCoinPm::BlitzCoinPm(const PmContext &ctx, const PmConfig &cfg)
    : PowerManager(ctx, cfg)
{
    const auto managed = ctx_.soc.managedAccelerators();
    std::vector<bool> flags(ctx_.soc.size(), false);
    for (noc::NodeId id : managed)
        flags[id] = true;
    auto hoods = coin::managedNeighborhoods(ctx_.net.topology(), flags);

    sim::Rng seeder(ctx_.seed);
    for (noc::NodeId id : managed) {
        PerTile pt;
        pt.unit = std::make_unique<blitzcoin::BlitzCoinUnit>(
            ctx_.eq, ctx_.net, id, cfg_.unit, hoods[id], seeder());
        pt.lut = std::make_unique<blitzcoin::CoinLut>(
            *ctx_.soc.tile(id).curve, scale_, cfg_.coinBits);

        blitzcoin::BlitzCoinUnit *unit = pt.unit.get();
        blitzcoin::CoinLut *lut = pt.lut.get();
        AcceleratorTile *tile = ctx_.tiles[id];
        BLITZ_ASSERT(tile != nullptr, "managed node without a tile");
        unit->onCoinsChanged = [this, lut, tile](coin::Coins has) {
            // Step (2) of the hardware pipeline: LUT converts the coin
            // count to the frequency target driving the UVFR.
            tile->setFreqTargetMhz(lut->freqFor(has));
            coinsMoved();
        };
        units_.emplace(id, std::move(pt));
    }
    for (auto &[id, pt] : units_)
        audit_.track(*pt.unit);
}

void
BlitzCoinPm::setTrace(trace::Tracer *t)
{
    PowerManager::setTrace(t);
    for (auto &[id, pt] : units_)
        pt.unit->setTrace(t);
}

void
BlitzCoinPm::registerMetrics(trace::Registry &reg)
{
    PowerManager::registerMetrics(reg);
    reg.sampled("pm.cluster_error", [this] { return clusterError(); });
    reg.sampled("pm.cluster_coins", [this] {
        return static_cast<double>(clusterCoins());
    });
    for (auto &[id, pt] : units_) {
        char name[32];
        std::snprintf(name, sizeof name, "pm.coin.has.%d",
                      static_cast<int>(id));
        blitzcoin::BlitzCoinUnit *unit = pt.unit.get();
        reg.sampled(name, [unit] {
            return unit->crashed()
                       ? 0.0
                       : static_cast<double>(unit->has());
        });
    }
    reg.sampled("audit.gaps_closed", [this] {
        return static_cast<double>(audit_.gapsClosed());
    });
    reg.sampled("audit.minted", [this] {
        return static_cast<double>(audit_.coinsMinted());
    });
    reg.sampled("audit.burned", [this] {
        return static_cast<double>(audit_.coinsBurned());
    });
}

blitzcoin::BlitzCoinUnit &
BlitzCoinPm::unit(noc::NodeId tile)
{
    auto it = units_.find(tile);
    BLITZ_ASSERT(it != units_.end(), "no BlitzCoin unit on tile ", tile);
    return *it->second.unit;
}

void
BlitzCoinPm::start()
{
    // Spread the pool evenly; the exchange redistributes from any
    // starting point (the Monte-Carlo studies use random spreads).
    audit_.setExpected(scale_.poolCoins);
    const auto n = static_cast<coin::Coins>(units_.size());
    const coin::Coins base = scale_.poolCoins / n;
    coin::Coins leftover = scale_.poolCoins - base * n;
    for (auto &[id, pt] : units_) {
        coin::Coins grant = base + (leftover > 0 ? 1 : 0);
        if (leftover > 0)
            --leftover;
        pt.unit->setHas(grant);
        pt.unit->start();
    }
}

void
BlitzCoinPm::onTaskStart(noc::NodeId tile)
{
    noteActivityChange();
    unit(tile).setMax(maxCoins()[tile]);
    active_[tile] = true;
    armSettleProbe();
}

void
BlitzCoinPm::onTaskEnd(noc::NodeId tile)
{
    noteActivityChange();
    unit(tile).setMax(0);
    active_[tile] = false;
    armSettleProbe();
}

bool
BlitzCoinPm::settleCondition()
{
    // Response is measured by sampling the distributed coin state on a
    // fixed cadence — the silicon measurements do the same by scoping
    // the internal PM state (Fig. 20); the base probe additionally
    // waits for the regulators to reach the new operating points.
    return clusterError() < cfg_.settleErr;
}

void
BlitzCoinPm::handlePacket(noc::NodeId at, const noc::Packet &pkt)
{
    auto it = units_.find(at);
    if (it != units_.end())
        it->second.unit->handlePacket(pkt);
}

double
BlitzCoinPm::clusterError() const
{
    // units_ is keyed by NodeId, so both passes visit tiles in
    // ascending id order and the double sum is reproducible.
    coin::Coins total_has = 0;
    coin::Coins total_max = 0;
    for (const auto &[id, pt] : units_) {
        total_has += pt.unit->has();
        total_max += pt.unit->max();
    }
    if (total_max == 0)
        return 0.0; // nothing active: no distribution to converge to
    const double alpha = static_cast<double>(total_has) /
                         static_cast<double>(total_max);
    // *Effective* error: holdings and expectations are both clamped at
    // the tile's saturation point (max coins = coins for Pmax by
    // construction). In an oversupplied phase (alpha > 1) every active
    // tile runs flat out once it holds max coins; coins beyond that
    // change nothing physically, so the response metric must not wait
    // for the surplus to reach exact proportionality.
    double sum = 0.0;
    for (const auto &[id, pt] : units_) {
        const double m = static_cast<double>(pt.unit->max());
        const double has_eff =
            std::clamp(static_cast<double>(pt.unit->has()), 0.0, m);
        const double want_eff = std::clamp(alpha * m, 0.0, m);
        sum += std::abs(has_eff - want_eff);
    }
    return sum / static_cast<double>(units_.size());
}

coin::Coins
BlitzCoinPm::clusterCoins() const
{
    // The audit tracks every unit; its census skips crashed and
    // quarantined tiles, exactly the coins still in the economy.
    return audit_.audit().counted;
}

void
BlitzCoinPm::coinsMoved()
{
    // Fast path between probe samples: a movement that brings the
    // cluster under threshold (with actuation already done) is
    // credited immediately.
    if (awaitingSettle() && settleCondition() && tilesSettled())
        noteSettled();
}

} // namespace blitz::soc
