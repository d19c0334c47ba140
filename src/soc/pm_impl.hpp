/**
 * @file
 * Concrete power-manager implementations (see pm.hpp for the survey).
 * Split from the public header so the Soc-facing API stays small.
 */

#ifndef BLITZ_SOC_PM_IMPL_HPP
#define BLITZ_SOC_PM_IMPL_HPP

#include <map>
#include <memory>
#include <vector>

#include "blitzcoin/audit.hpp"
#include "blitzcoin/coin_lut.hpp"
#include "blitzcoin/unit.hpp"
#include "coin/neighborhood.hpp"
#include "pm.hpp"

namespace blitz::soc {

/**
 * Fully decentralized BlitzCoin manager: one unit + LUT per managed
 * tile; no shared algorithmic state. The manager object itself only
 * wires callbacks and measures global settle time (which on silicon is
 * done with an external scope, Fig. 20).
 */
class BlitzCoinPm : public PowerManager
{
  public:
    BlitzCoinPm(const PmContext &ctx, const PmConfig &cfg);

    const char *name() const override { return "BC"; }
    void start() override;
    void onTaskStart(noc::NodeId tile) override;
    void onTaskEnd(noc::NodeId tile) override;
    void handlePacket(noc::NodeId at, const noc::Packet &pkt) override;

    /** The unit on a managed tile (test access). */
    blitzcoin::BlitzCoinUnit &unit(noc::NodeId tile);

    /** No SoC run arms a guardian; kept for benchmark/adapters.hpp. */
    blitzcoin::IntegrityGuardian *guardian() { return nullptr; }

    /** The coin census behind clusterCoins(). */
    blitzcoin::ClusterAudit &audit() { return audit_; }

    /** Mean coin error over the managed cluster (the Err metric). */
    double clusterError() const;

    /** Sum of coins over the cluster (conservation probe). */
    coin::Coins clusterCoins() const;

    /** Also wires the tracer into every unit. */
    void setTrace(trace::Tracer *t) override;

    /** Adds cluster error/total, per-unit balances, audit counters. */
    void registerMetrics(trace::Registry &reg) override;

  protected:
    bool settleCondition() override;

  private:
    void coinsMoved();

    struct PerTile
    {
        std::unique_ptr<blitzcoin::BlitzCoinUnit> unit;
        std::unique_ptr<blitzcoin::CoinLut> lut;
    };

    std::map<noc::NodeId, PerTile> units_;
    blitzcoin::ClusterAudit audit_{0};
};

/**
 * Centralized controller shared by BC-C and C-RR: interrupt-driven
 * reallocation rounds that poll every managed tile, compute, then
 * write every tile's V/F target — all sequentially over the NoC with
 * per-step firmware latency, which is what makes response O(N).
 */
class CentralPm : public PowerManager
{
  public:
    CentralPm(const PmContext &ctx, const PmConfig &cfg, bool roundRobin);

    const char *
    name() const override
    {
        return roundRobin_ ? "C-RR" : "BC-C";
    }

    void start() override;
    void onTaskStart(noc::NodeId tile) override;
    void onTaskEnd(noc::NodeId tile) override;
    void handlePacket(noc::NodeId at, const noc::Packet &pkt) override;

  protected:
    bool
    settleCondition() override
    {
        return writesApplied_;
    }

  private:
    void activityChanged(noc::NodeId tile, bool nowActive);
    void rotateTick();
    void startRound(bool fromActivity);
    void pollNext();
    void computeAndWrite();
    void writeNext();

    /** Target power per node under the scheme's allocation (mW). */
    std::vector<double> computeAllocation() const;

    /** Quantize a power grant to the coin precision (mW). */
    double quantize(double powerMw) const;

    bool roundRobin_;
    std::vector<noc::NodeId> managed_;
    std::size_t rotation_ = 0; ///< C-RR rotation offset
    bool roundActive_ = false;
    bool dirty_ = false;       ///< change arrived mid-round
    bool roundFromActivity_ = false;
    /** The latest activity-triggered round's writes have all landed. */
    bool writesApplied_ = false;
    std::size_t pollIdx_ = 0;
    std::size_t writeIdx_ = 0;
    std::vector<double> grants_; ///< per managed index, mW
};

/** Fixed proportional split applied once at start. */
class StaticPm : public PowerManager
{
  public:
    StaticPm(const PmContext &ctx, const PmConfig &cfg);

    const char *name() const override { return "Static"; }
    void start() override;
    void onTaskStart(noc::NodeId tile) override;
    void onTaskEnd(noc::NodeId tile) override;
};

} // namespace blitz::soc

#endif // BLITZ_SOC_PM_IMPL_HPP
