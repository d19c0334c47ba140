/**
 * @file
 * Power-management strategies for the SoC model.
 *
 * Four managers implement the paper's evaluated schemes:
 *  - BlitzCoin (BC): fully decentralized; one BlitzCoinUnit per managed
 *    tile exchanging coins over the NoC (Section IV).
 *  - BlitzCoin-Centralized (BC-C): the same proportional allocation,
 *    but computed by a controller on the CPU tile that polls and
 *    updates tiles sequentially over the NoC (Section V-C).
 *  - Centralized Round-Robin (C-RR): greedy rotation of full-power
 *    grants under the cap, after Mantovani et al. [42] (Section V-C).
 *  - Static: a fixed proportional split applied once — the silicon
 *    experiment's comparison baseline (Section VI-C).
 *
 * All managers enforce the same budget and expose the same response
 * instrumentation so the benches can compare them directly.
 */

#ifndef BLITZ_SOC_PM_HPP
#define BLITZ_SOC_PM_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "blitzcoin/unit.hpp"
#include "coin/allocation.hpp"
#include "config.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "tile.hpp"

namespace blitz::trace {
class Registry;
class Tracer;
}

namespace blitz::soc {

/** Strategy selector. */
enum class PmKind : std::uint8_t
{
    BlitzCoin,         ///< BC: decentralized coin exchange
    BlitzCoinCentral,  ///< BC-C: same allocation, central controller
    CentralRoundRobin, ///< C-RR: greedy rotation baseline
    StaticAlloc,       ///< fixed split, no adaptation
};

const char *pmKindName(PmKind k);

/** Strategy parameters. */
struct PmConfig
{
    PmKind kind = PmKind::BlitzCoin;
    coin::AllocPolicy alloc = coin::AllocPolicy::RelativeProportional;
    /** SoC accelerator power budget (mW). */
    double budgetMw = 0.0;
    /** Coin counter precision (64 levels at 6 bits). */
    int coinBits = 6;
    /** BC: per-unit FSM parameters. */
    blitzcoin::UnitConfig unit{};
    /** Centralized: firmware cycles per tile poll/update step. */
    sim::Tick ctrlCyclesPerTile = 192;
    /** Centralized: fixed firmware overhead per reallocation round. */
    sim::Tick ctrlRoundOverhead = 256;
    /** C-RR: rotation period (ticks). */
    sim::Tick crrRotationPeriod = 20000;
    /** BC: mean coin error below which a change counts as settled. */
    double settleErr = 1.0;
    /**
     * Static baseline: tiles sharing the fixed split. A real static
     * configuration is provisioned for the workload it will run, so
     * benches pass the DAG's tile set; empty means all managed tiles.
     */
    std::vector<noc::NodeId> staticParticipants;
};

/** Everything a manager needs from the SoC; references stay owned
 *  by the Soc object and outlive the manager. */
struct PmContext
{
    sim::EventQueue &eq;
    noc::Network &net;
    const SocConfig &soc;
    /** Accelerator tiles indexed by node id (nullptr elsewhere). */
    const std::vector<AcceleratorTile *> &tiles;
    std::uint64_t seed = 1;
};

/**
 * Strategy interface.
 *
 * The Soc calls onTaskStart/onTaskEnd as the workload scheduler flips
 * tile activity, and forwards every service-plane packet delivered to a
 * node through handlePacket.
 */
class PowerManager
{
  public:
    PowerManager(const PmContext &ctx, const PmConfig &cfg);
    virtual ~PowerManager() = default;

    PowerManager(const PowerManager &) = delete;
    PowerManager &operator=(const PowerManager &) = delete;

    virtual const char *name() const = 0;

    /** Bring the scheme up (initial coin spread / initial targets). */
    virtual void start() = 0;

    /** A task began executing on a managed tile. */
    virtual void onTaskStart(noc::NodeId tile) = 0;

    /** The task on a managed tile finished. */
    virtual void onTaskEnd(noc::NodeId tile) = 0;

    /** Service-plane packet delivered at @p at. */
    virtual void
    handlePacket(noc::NodeId at, const noc::Packet &pkt)
    {
        (void)at;
        (void)pkt;
    }

    /**
     * Attach an event tracer (nullptr detaches): every settled
     * reallocation emits a "pm"/"settle" complete span from the
     * activity change to the settle tick. Strategies may add their own
     * events. Disabled costs one branch per settle, not per tick.
     */
    virtual void setTrace(trace::Tracer *t) { tracer_ = t; }

    /**
     * Register the manager's observables on @p reg as sampled gauges
     * (response count/mean/max; strategies add scheme-specific ones,
     * e.g. BC's cluster error and per-unit balances). The registry
     * samples on its own cadence; registration itself schedules
     * nothing.
     */
    virtual void registerMetrics(trace::Registry &reg);

    /** Distribution of measured response times (ticks). */
    const sim::Summary &responseTimes() const { return response_; }

    /** Coin scale in force (mW per coin, pool size). */
    const coin::CoinScale &scale() const { return scale_; }

    /** Configured SoC budget (mW); the cap the trace is checked against. */
    double budgetMw() const { return cfg_.budgetMw; }

    /** Per-node max coin targets under the configured policy. */
    const std::vector<coin::Coins> &maxCoins() const { return maxCoins_; }

  protected:
    /** Mark an activity change at the current tick. */
    void noteActivityChange();

    /** Mark the reallocation for the latest change as complete. */
    void noteSettled();

    /** True when a change is awaiting its settle measurement. */
    bool awaitingSettle() const { return pendingChange_.has_value(); }

    /**
     * True when every managed tile's regulator has reached its target
     * operating point. Response times include this actuation phase:
     * the paper measures until the new V/F point is in effect, not
     * merely until the allocation is decided.
     */
    bool tilesSettled() const;

    /**
     * Strategy-specific "reallocation logically complete" predicate;
     * the settle probe ANDs it with tilesSettled().
     */
    virtual bool settleCondition() { return true; }

    /**
     * Start (if not already running) a periodic probe that records the
     * pending change as settled once settleCondition() and
     * tilesSettled() both hold.
     */
    void armSettleProbe();

    /** One firing of the settle probe; reschedules itself while armed. */
    void probeTick();

    PmContext ctx_;
    PmConfig cfg_;
    coin::CoinScale scale_;
    std::vector<coin::Coins> maxCoins_; ///< by node id
    std::vector<bool> active_;          ///< by node id
    trace::Tracer *tracer_ = nullptr;

  private:
    std::optional<sim::Tick> pendingChange_;
    sim::Summary response_;
    sim::Timer probe_; ///< armed while the settle probe runs
};

/** Factory over PmConfig::kind. */
std::unique_ptr<PowerManager> makePowerManager(const PmContext &ctx,
                                               const PmConfig &cfg);

} // namespace blitz::soc

#endif // BLITZ_SOC_PM_HPP
