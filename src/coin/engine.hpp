/**
 * @file
 * Behavioral coin-exchange engine (the paper's "in-house simulator").
 *
 * Section III evaluates BlitzCoin's algorithm with Monte-Carlo runs of a
 * step-level emulator: tiles fire on their refresh timers, pick partners,
 * and rebalance atomically while the engine accounts NoC cycles and
 * packets analytically. This engine reproduces that methodology — it is
 * the vehicle for Figs. 3, 4, 6, 7 and 8 and for the design-space
 * ablations. The full packet-accurate model lives in src/blitzcoin and
 * is used for the SoC-level experiments.
 */

#ifndef BLITZ_COIN_ENGINE_HPP
#define BLITZ_COIN_ENGINE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "backoff.hpp"
#include "exchange.hpp"
#include "firing_queue.hpp"
#include "ledger.hpp"
#include "noc/topology.hpp"
#include "pairing.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace blitz::trace {
class Registry;
}

namespace blitz::coin {

/** Which exchange algorithm the engine runs. */
enum class ExchangeMode : std::uint8_t
{
    OneWay,  ///< Algorithm 2: pairwise, rotating through neighbors
    FourWay, ///< Algorithm 1: center + 4 neighbors at once
};

const char *exchangeModeName(ExchangeMode m);

/** Engine configuration; defaults match the paper's chosen embodiment. */
struct EngineConfig
{
    ExchangeMode mode = ExchangeMode::OneWay;
    /** Torus wrap-around neighborhoods (Fig. 5 left). */
    bool wrap = true;
    /** Dynamic timing; .enabled=false gives the fixed-interval variant. */
    BackoffConfig backoff{};
    /** Random pairing; .randomPairing=false disables it. */
    PairingConfig pairing{};
    /** Per-hop NoC latency in cycles. */
    sim::Tick hopCycles = 1;
    /** Coin-update FSM latency; 1 cycle in the hardware (Section IV-A). */
    sim::Tick fsmCycles = 1;
    /**
     * Extra latency of the 4-way arithmetic: the many-operand update
     * needs pipelining and synchronization the pairwise datapath avoids
     * (Section III-B).
     */
    sim::Tick fourWayExtraCycles = 4;
    /** Optional per-tile thermal caps (empty = uncapped). */
    std::vector<Coins> thermalCaps;
    /**
     * Optional neighborhood thermal cap (Section III-B's sub-group
     * form): a tile rejects incoming coins when its own holdings plus
     * its mesh neighbors' would exceed this value — bounding the power
     * density of any 5-tile cross on the die. ::uncapped disables it.
     */
    Coins neighborhoodCap = uncapped;
    /**
     * Behavioral packet-loss model, mirroring the packet-accurate
     * recovery protocol's *outcome* (see blitzcoin/unit.hpp): each leg
     * of an exchange is lost with this probability. A lost status leg
     * makes the firing a no-op (the initiator times out); a lost
     * update leg still applies the rebalance — reconciliation replays
     * the delta — but completion is delayed by lossRecoveryCycles and
     * the probe/replay packets are accounted. Coins stay conserved
     * structurally (the ledger moves both halves atomically). The RNG
     * is only consulted when the rate is non-zero, so existing seeded
     * trials replay bit-identically.
     */
    double lossRate = 0.0;
    /** Added completion latency when an update leg must be recovered. */
    sim::Tick lossRecoveryCycles = 512;
};

/** Outcome of a convergence run. */
struct RunResult
{
    bool converged = false;
    sim::Tick time = 0;          ///< tick of the converging exchange
    std::uint64_t packets = 0;   ///< NoC messages used
    std::uint64_t exchanges = 0; ///< exchange operations performed
};

/**
 * Step-level mesh simulator for the coin-exchange algorithm.
 *
 * Every tile has exactly one pending refresh firing (see FiringQueue);
 * firings run in (tick, tile id) order, so tiles due at the same tick
 * fire lowest id first.
 *
 * Determinism: all randomness (initial holdings, staggered first
 * firings, partner choice, packet loss) derives from the seed passed
 * at construction.
 */
class MeshSim
{
  public:
    /**
     * @param topo mesh shape (copied). Wrap-around is taken from
     *        cfg.wrap, overriding the topology flag.
     * @param cfg engine parameters.
     * @param seed RNG seed for this trial.
     */
    MeshSim(const noc::Topology &topo, const EngineConfig &cfg,
            std::uint64_t seed);

    const Ledger &ledger() const { return ledger_; }
    sim::Tick now() const { return now_; }

    /** Program a tile's target; resets its refresh timer. */
    void setMax(std::size_t i, Coins max);

    /** Set a tile's holdings (initialization). */
    void setHas(std::size_t i, Coins has);

    /**
     * Scatter @p pool coins uniformly at random over the tiles —
     * the random initialization of the paper's Monte-Carlo runs.
     */
    void randomizeHas(Coins pool);

    /**
     * Scatter @p pool coins over a random contiguous region covering
     * roughly a quarter of the mesh. This is the physically relevant
     * initialization — coins start parked where the previous workload
     * ran — and it creates the long-range transport that makes
     * convergence time scale with the mesh diameter (Fig. 3); a
     * uniform scatter has only local imbalance and converges in O(1)
     * rounds at any size.
     */
    void clusterHas(Coins pool);

    /** Global mean error Err (cached; O(N) only after a setter). */
    double globalError() const;

    /** Largest per-tile error (Fig. 7 metric; O(N)). */
    double maxError() const { return ledger_.maxError(); }

    /**
     * Run until Err < @p errThreshold or @p maxTime passes.
     * Counters (packets/exchanges) are measured from the call, not from
     * construction, so response-time probes can reuse one engine.
     */
    RunResult runUntilConverged(double errThreshold, sim::Tick maxTime);

    /** Run for a fixed duration regardless of convergence. */
    RunResult runFor(sim::Tick duration);

    /** Total packets since construction. */
    std::uint64_t totalPackets() const { return packets_; }

    /** Total exchanges since construction. */
    std::uint64_t totalExchanges() const { return exchanges_; }

    /** Exchange legs lost to the behavioral loss model. */
    std::uint64_t totalLosses() const { return losses_; }

    /**
     * Coins held by a tile's cross neighborhood (itself included) —
     * the quantity the neighborhood thermal cap bounds.
     */
    Coins neighborhoodCoins(std::size_t i) const;

    /**
     * Attach a metrics registry sampled every @p interval ticks (or
     * detach with nullptr). The engine calls Registry::sample at each
     * cadence boundary its run loops cross; sampling reads state and
     * touches no RNG, so an attached registry leaves trial outcomes
     * bit-identical. Register the gauges (trace::attachMeshMetrics)
     * before the first run.
     */
    void
    setSampling(trace::Registry *reg, sim::Tick interval)
    {
        metrics_ = reg;
        sampleEvery_ = interval;
        nextSample_ = now_ + interval;
    }

  private:
    /** Recompute alpha and the cached error sum from scratch. */
    void rebuildError() const;

    /**
     * The run loop of both runUntilConverged and runFor: fire due
     * tiles in (tick, tile) order while the next firing is at or
     * before @p limit. With @p stopBelow set, stop after the firing
     * that takes Err below it and return that exchange's completion
     * tick.
     */
    std::optional<sim::Tick> drain(sim::Tick limit,
                                   std::optional<double> stopBelow);

    /**
     * Execute one firing; returns the exchange completion tick. Every
     * path reschedules @p tile, which keeps one firing per tile queued.
     */
    sim::Tick fire(std::uint32_t tile);

    /** Perform a pairwise exchange; returns coins moved (absolute). */
    Coins doPairwise(std::uint32_t i, std::uint32_t j);

    /** 4-way group exchange over @p members; returns coins moved. */
    Coins doFourWay(std::uint32_t center,
                    const std::vector<noc::NodeId> &members);

    /** Emit every due snapshot with tick <= @p upTo. */
    void drainSamples(sim::Tick upTo);

    Coins capOf(std::size_t i) const;

    /**
     * Acceptance cap of a tile combining its own thermal cap with the
     * neighborhood (power-density) cap.
     */
    Coins effectiveCap(std::size_t i) const;

    /** Local imbalance that pins the tile at a short refresh cadence. */
    bool
    discontent(std::size_t i) const
    {
        const TileCoins &t = ledger_.tile(i);
        return (t.max == 0 && t.has > 0) || (t.max > 0 && t.has == 0);
    }

    /** Active tile stranded in an idle neighborhood (Fig. 5). */
    bool
    isolated(std::size_t i) const
    {
        return ledger_.max(i) > 0 && iso_[i].isolated();
    }

    noc::Topology topo_;
    EngineConfig cfg_;
    sim::Rng rng_;
    Ledger ledger_;
    std::vector<BackoffTimer> timers_;
    std::vector<PartnerSelector> selectors_;
    /**
     * Exchange-round scratch, reused across firings so the hot loop
     * (one group build per 4-way round, one survivor filter per lossy
     * round) stops allocating. Valid only within a single call.
     */
    std::vector<TileCoins> groupScratch_;
    std::vector<Coins> capsScratch_;
    std::vector<noc::NodeId> survivorScratch_;
    std::vector<IsolationDetector> iso_;
    FiringQueue firings_;
    sim::Tick now_ = 0;
    trace::Registry *metrics_ = nullptr;
    sim::Tick sampleEvery_ = 0;
    sim::Tick nextSample_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t exchanges_ = 0;
    std::uint64_t losses_ = 0;
    // Cached error state: alpha_ changes only on setMax/setHas. The
    // setters only mark it stale, so programming every tile of a mesh
    // costs one O(N) rebuild, at the next read.
    mutable double alpha_ = 0.0;
    mutable double errSum_ = 0.0;
    mutable bool errStale_ = false;
};

} // namespace blitz::coin

#endif // BLITZ_COIN_ENGINE_HPP
