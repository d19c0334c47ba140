/**
 * @file
 * Byzantine tile adversaries: deterministic, seeded compromise of
 * selected BlitzCoin units.
 *
 * FaultPlane models *benign* faults — lost, delayed, duplicated, or
 * corrupted packets that the exchange protocol is designed to absorb.
 * A ByzantinePlan models the adversarial complement: tiles that keep
 * speaking well-formed protocol but lie. A compromised tile can mint
 * counterfeit coins into its own counter, forge exchange replies so
 * it applies more than it reports, spam initiations while advertising
 * fake desperation, hoard by refusing every payout, or replay stale
 * CoinUpdate packets with old sequence stamps.
 *
 * The plan mirrors FaultPlane's scoping idiom: a ByzantineConfig is a
 * pure value (per-node behavior specs with activation windows), and a
 * (config, seed) pair fully determines the attack pattern. Passive
 * lies live in an AdversaryHook installed on the unit (consulted at
 * the three protocol seams; pure, no RNG); active behaviors (the
 * counterfeit pulse, the stale resend) are locus-pinned drivers on
 * the event queue, so sharded runs stay bit-identical at any shard
 * count. The guardian (blitzcoin/guardian.hpp) is the defense; the
 * plan stops a driver permanently once its tile is quarantined.
 */

#ifndef BLITZ_FAULT_BYZANTINE_HPP
#define BLITZ_FAULT_BYZANTINE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "blitzcoin/unit.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"

namespace blitz::trace {
class Tracer;
}

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::fault {

/** The lie a compromised tile tells. */
enum class ByzantineBehavior : std::uint8_t
{
    /** Periodically writes counterfeit coins into its own counter. */
    Inflator = 0,
    /** Serves exchanges applying more locally than it reports back. */
    ReplyForger = 1,
    /** Floods initiations while advertising fabricated desperation. */
    Spammer = 2,
    /** Claims need in every status, refuses every payout it is dealt. */
    StuckGreedy = 3,
    /** Captures a served reply and resends it with the old stamp. */
    StaleReplayer = 4,
};

/** One compromised tile. */
struct ByzantineSpec
{
    noc::NodeId node = 0;
    ByzantineBehavior behavior = ByzantineBehavior::Inflator;
    /** Activation window [from, until). */
    sim::Tick from = 0;
    sim::Tick until = sim::maxTick;
    /** Coins per counterfeit pulse / per forged reply skim. */
    coin::Coins amount = 4;
    /** Cadence of the Inflator pulse / StaleReplayer resend. */
    sim::Tick period = 512;
    /** Fabricated max target advertised by lying statuses. */
    coin::Coins claimMax = 63;
};

/** Full attack schedule. */
struct ByzantineConfig
{
    /** Reserved for stochastic behaviors; part of the scenario key. */
    std::uint64_t seed = 1;
    std::vector<ByzantineSpec> specs;
};

/** Attack counters, merged over all compromised tiles. */
struct ByzantineStats
{
    /** Coins created out of thin air (pulses + forged replies). */
    coin::Coins counterfeited = 0;
    /** Inflator pulses that landed. */
    std::uint64_t pulses = 0;
    /** Served exchanges whose reply was forged. */
    std::uint64_t forgedReplies = 0;
    /** Payouts a StuckGreedy tile refused to honor. */
    std::uint64_t refusedPayouts = 0;
    /** Stale CoinUpdate packets re-injected. */
    std::uint64_t staleReplays = 0;
    /** Outgoing statuses with fabricated registers. */
    std::uint64_t lyingStatuses = 0;
};

/**
 * Deterministic Byzantine compromise of a set of units.
 *
 * Usage: construct with a config, call corrupt() on every unit (only
 * those named in a spec are touched), then arm() once to schedule the
 * active drivers. The plan must outlive the units.
 */
class ByzantinePlan
{
  public:
    explicit ByzantinePlan(ByzantineConfig cfg);
    ~ByzantinePlan();

    ByzantinePlan(const ByzantinePlan &) = delete;
    ByzantinePlan &operator=(const ByzantinePlan &) = delete;

    /** True when @p node is named by a spec. */
    bool compromised(noc::NodeId node) const;

    /**
     * Install the behavior hook on @p unit if a spec names it; no-op
     * otherwise. Call once per unit, before the simulation runs.
     */
    void corrupt(blitzcoin::BlitzCoinUnit &unit);

    /**
     * Schedule the active drivers (counterfeit pulses, stale resends)
     * at each compromised node's locus. Call once, before running; on
     * a sharded queue the drivers execute inside the owning shard, so
     * the attack pattern is bit-identical at any shard count. A driver
     * whose tile gets quarantined stops rescheduling permanently.
     */
    void arm(sim::EventQueue &eq, noc::Network &net);

    /**
     * Attack counters, summed over compromised tiles (each counter is
     * single-writer at its tile's locus; the sum is fold-order free).
     */
    ByzantineStats stats() const;

    /**
     * Attach the flight recorder (or detach with nullptr). Every
     * *action* — pulse, forged reply, refused payout, stale resend —
     * is journaled as a Byzantine record; per-packet lies (fabricated
     * statuses) only bump counters to keep the log bounded.
     */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    /** Attach an event tracer (instants per action; nullptr detaches). */
    void setTrace(trace::Tracer *t) { tracer_ = t; }

  private:
    struct Agent;

    void pulse(Agent &a);
    void replay(Agent &a);
    void record(const Agent &a, std::int64_t amount, std::int64_t extra,
                const char *what);

    ByzantineConfig cfg_;
    std::vector<std::unique_ptr<Agent>> agents_;
    sim::EventQueue *eq_ = nullptr;
    noc::Network *net_ = nullptr;
    record::FlightRecorder *recorder_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
};

} // namespace blitz::fault

#endif // BLITZ_FAULT_BYZANTINE_HPP
