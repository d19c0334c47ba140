/**
 * @file
 * The BlitzCoin hardware unit: a per-tile FSM in the NoC power domain.
 *
 * This is the packet-accurate model of Section IV: each tile owns one
 * unit holding the (sign-extended) coin counter and the max target. On
 * its (dynamically timed) refresh the unit initiates a 1-way exchange —
 * CoinStatus out, CoinUpdate back — with a partner chosen by neighbor
 * rotation or randomized pairing. The partner computes the rebalance in
 * one FSM cycle and applies its half immediately; the initiator applies
 * the returned delta when the update lands. Because other exchanges can
 * interleave on the NoC, a tile's count can transiently go negative;
 * the sign bit absorbs it and steady state is always non-negative.
 *
 * Loss recovery (beyond the paper's text, see DESIGN.md "Fault model &
 * recovery"): every 1-way exchange carries a per-initiator sequence
 * stamp. The partner logs the last few (stamp, delta) pairs it served;
 * if the CoinUpdate never lands, the initiator times out, frees its FSM,
 * and reconciles in the background with CoinRecover probes — the partner
 * replays the logged delta (or reports that the exchange never
 * happened), so a dropped, delayed, or duplicated packet degrades
 * convergence instead of leaking coins. Only an unrecoverable loss (a
 * crashed partner) leaves a gap, which the ClusterAudit watchdog remints.
 *
 * There is deliberately no shared state between units: the only
 * communication is NoC packets, which is what makes the model a faithful
 * stand-in for the RTL.
 */

#ifndef BLITZ_BLITZCOIN_UNIT_HPP
#define BLITZ_BLITZCOIN_UNIT_HPP

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coin/backoff.hpp"
#include "coin/engine.hpp"
#include "coin/exchange.hpp"
#include "coin/neighborhood.hpp"
#include "coin/pairing.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace blitz::trace {
class Tracer;
}

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::blitzcoin {

class GuardSentry; // guardian.hpp: per-tile neighbor observation taps

/**
 * payload[3] wire encoding shared by CoinStatus and CoinUpdate: the
 * low byte is a flag, the rest is a message tag — the exchange stamp
 * (xid) for 1-way traffic, the round generation for 4-way. Hoisted
 * here (from unit.cpp) so adversary models can forge well-formed
 * protocol packets without duplicating the encoding.
 */
namespace wire {

enum WireFlag : int
{
    FlagOneWay = 0,  ///< 1-way exchange; tag is the initiator's xid
    FlagGroup = 1,   ///< 4-way reply / group update; tag is the round
    FlagUnknown = 2, ///< recover reply: outcome evicted from the log
};

constexpr std::int64_t
packTag(std::uint64_t tag, int flag)
{
    return static_cast<std::int64_t>((tag << 8) |
                                     static_cast<std::uint64_t>(flag));
}

constexpr int
tagFlag(std::int64_t word)
{
    return static_cast<int>(word & 0xff);
}

constexpr std::uint64_t
tagValue(std::int64_t word)
{
    return static_cast<std::uint64_t>(word) >> 8;
}

} // namespace wire

/**
 * Byzantine compromise of one unit: a hook consulted at the three
 * seams where a lying tile can diverge from the protocol — the
 * registers it advertises, the split between what a served exchange
 * applies locally and what it reports on the wire, and the initiation
 * cadence. The default implementations are the honest protocol, so a
 * hook overriding nothing is a no-op. Hooks must be pure (no RNG, no
 * scheduling): active behaviors (counterfeit pulses, stale replays)
 * belong in the ByzantinePlan's locus-pinned drivers.
 */
class AdversaryHook
{
  public:
    virtual ~AdversaryHook() = default;

    /** Mutate the registers advertised in an outgoing CoinStatus. */
    virtual void
    adviseStatus(coin::Coins & /*has*/, coin::Coins & /*max*/,
                 coin::Coins & /*cap*/)
    {
    }

    /**
     * Split a served 1-way exchange. @p honest is the pairwise delta
     * this tile would gain; @p applied is what it actually adds to its
     * counter, @p reported what it sends back (the initiator applies
     * it verbatim). Honest behavior keeps applied == honest and
     * reported == -honest; any other split mints or destroys coins.
     */
    virtual void
    adviseServe(noc::NodeId /*initiator*/, std::uint64_t /*xid*/,
                coin::Coins /*honest*/, coin::Coins & /*applied*/,
                coin::Coins & /*reported*/)
    {
    }

    /** Override the next initiation interval (request spamming). */
    virtual sim::Tick
    adviseInterval(sim::Tick honest)
    {
        return honest;
    }
};

/** Configuration of one BlitzCoin unit. */
struct UnitConfig
{
    /**
     * Exchange algorithm. OneWay is the paper's chosen embodiment;
     * FourWay implements Algorithm 1 at packet level (request ->
     * status x4 -> update x4) with the snapshot locking the paper
     * says the group datapath requires — busy members refuse to
     * reply, so contended rounds complete partially and throughput
     * drops, which is exactly the Section III-B argument for 1-way.
     */
    coin::ExchangeMode mode = coin::ExchangeMode::OneWay;
    coin::BackoffConfig backoff{};
    coin::PairingConfig pairing{};
    /** Coin counter width (excluding the sign bit). */
    int coinBits = 6;
    /** Coin-update FSM latency (1 cycle in the RTL). */
    sim::Tick fsmCycles = 1;
    /** Thermal cap on this tile's holdings (::coin::uncapped if none). */
    coin::Coins thermalCap = coin::uncapped;
    /**
     * 1-way exchange timeout: ticks without the CoinUpdate before the
     * FSM is freed and background reconciliation begins.
     */
    sim::Tick recoverTimeout = 512;
    /**
     * CoinRecover probes per lost exchange (exponential backoff,
     * mirroring the BackoffTimer growth law) before the loss is left
     * to the audit/remint watchdog.
     */
    int maxRecoverAttempts = 6;
    /** Per-initiator depth of the partner's served-exchange log. */
    std::size_t servedLogDepth = 8;
};

/**
 * Per-tile BlitzCoin FSM.
 *
 * The owning tile wires handlePacket() into its service-plane demux and
 * observes coin changes through the onCoinsChanged callback (which feeds
 * the LUT + UVFR pipeline).
 */
class BlitzCoinUnit
{
  public:
    /**
     * @param eq shared event queue.
     * @param net NoC carrying the coin traffic.
     * @param self tile node id.
     * @param cfg unit parameters.
     * @param hood the tile's logical neighborhood (managedNeighborhoods;
     *        in a PM cluster only a subset of tiles exchanges coins).
     * @param seed per-tile RNG seed (pairing staggering).
     */
    BlitzCoinUnit(sim::EventQueue &eq, noc::Network &net,
                  noc::NodeId self, const UnitConfig &cfg,
                  const coin::Neighborhood &hood, std::uint64_t seed);

    noc::NodeId self() const { return self_; }
    coin::Coins has() const { return state_.has; }
    coin::Coins max() const { return state_.max; }
    bool running() const { return running_; }

    /** Initialize holdings (before start(), or when reminting). */
    void setHas(coin::Coins has);

    /**
     * Program the activity target. Called by the tile when execution
     * starts (max > 0) or ends (max = 0); fires an immediate exchange.
     */
    void setMax(coin::Coins max);

    /** Begin periodic exchange initiation. */
    void start();

    /** Stop initiating (incoming exchanges are still served). */
    void stop();

    /**
     * Power-fail the tile: all architectural state — coins, target,
     * in-flight exchange tracking, served-exchange log — is lost and
     * the unit goes deaf until restart(). Coins held here at the crash
     * are destroyed; the ClusterAudit watchdog remints them.
     */
    void crash();

    /**
     * Bring a crashed unit back up with empty registers. The exchange
     * sequence counter deliberately survives the crash so stale
     * partner logs can never alias a post-restart exchange. Call
     * start() (and setMax/setHas) afterwards as at first boot.
     */
    void restart();

    /** True while crashed (deaf to packets, no initiation). */
    bool crashed() const { return crashed_; }

    /**
     * Quarantine the tile (integrity guardian verdict): initiation
     * stops, the unit goes deaf, and all in-flight exchange tracking
     * is dropped so recovery probes cannot keep pumping packets. The
     * coin counter is left fenced in place — the ClusterAudit census
     * excludes quarantined tiles, so the watchdog remints the honest
     * share elsewhere and the fenced counter never re-enters the
     * budget. Sticky: survives crash()/restart() and blocks start().
     */
    void quarantine();

    /** True once quarantined (sticky). */
    bool quarantined() const { return quarantined_; }

    /**
     * Stop exchanging with @p node (a quarantined neighbor): its
     * packets are dropped at the demux and the partner selector is
     * rebuilt without it (far partners are promoted if the neighbor
     * list would empty — the mesh re-forms around the hole). If no
     * partner remains at all the old selector is kept; exchanges
     * aimed at the shunned node then time out and abandon.
     */
    void shun(noc::NodeId node);

    /** True if @p node's packets are being dropped. */
    bool
    isShunned(noc::NodeId node) const
    {
        return std::binary_search(shunned_.begin(), shunned_.end(), node);
    }

    /**
     * Cap 1-way serves for @p initiator at @p budget per guardian
     * window (escalation step between warn and quarantine). Serves
     * past the budget are dropped (and counted for the sentry, so
     * evidence keeps accruing while throttled).
     */
    void setServeThrottle(noc::NodeId initiator, std::uint32_t budget);

    /** Lift the serve cap for @p initiator (guardian amnesty). */
    void clearServeThrottle(noc::NodeId initiator);

    /** Reset all per-window throttle counters (each guardian sweep). */
    void resetThrottleWindow();

    /** Packets dropped because their source is shunned. */
    std::uint64_t shunnedDrops() const { return shunnedDrops_; }

    /** Serves dropped by an exhausted throttle budget. */
    std::uint64_t throttledDrops() const { return throttledDrops_; }

    /** Install a Byzantine behavior hook (nullptr = honest). */
    void setAdversary(AdversaryHook *a) { adversary_ = a; }

    /**
     * Attach the guardian's observation tap. Pure observer on the
     * honest path: every write happens at this unit's locus, and the
     * guardian reads/clears the window from the serial lane between
     * supersteps, so sharded runs stay race-free and bit-identical.
     */
    void setSentry(GuardSentry *s) { sentry_ = s; }

    /** Service-plane packet delivery from the tile's demux. */
    void handlePacket(const noc::Packet &pkt);

    /** Observer invoked whenever the coin count changes. */
    std::function<void(coin::Coins)> onCoinsChanged;

    /** Exchanges initiated by this unit. */
    std::uint64_t exchangesInitiated() const { return initiated_; }

    /** Exchanges that moved at least one coin. */
    std::uint64_t exchangesMoved() const { return moved_; }

    /** 1-way exchanges whose update timed out at least once. */
    std::uint64_t exchangesTimedOut() const { return timedOut_; }

    /** CoinRecover probes sent. */
    std::uint64_t recoveriesSent() const { return recoversSent_; }

    /** Lost updates whose delta was recovered via reconciliation. */
    std::uint64_t updatesRecovered() const { return recovered_; }

    /** Duplicate/stale packets discarded by the sequence stamps. */
    std::uint64_t duplicatesIgnored() const { return duplicatesIgnored_; }

    /** Corrupted (CRC-flagged) packets discarded at the demux. */
    std::uint64_t corruptedDropped() const { return corruptedDropped_; }

    /**
     * Exchanges abandoned with their outcome unknown after all
     * CoinRecover attempts — the cases only the audit watchdog can
     * close (a crashed or partitioned partner).
     */
    std::uint64_t exchangesAbandoned() const { return abandoned_; }

    /**
     * Attach an event tracer (or detach with nullptr). When set, the
     * unit emits one complete span per resolved 1-way exchange
     * (initiation to resolution, tagged with partner / delta /
     * outcome) and instants for timeouts, recovery probes, duplicate
     * drops, and crash/restart edges. Null by default: the disabled
     * path is a single branch per protocol milestone, none of them on
     * the packet hot path.
     */
    void setTrace(trace::Tracer *t) { tracer_ = t; }

    /**
     * Attach the flight recorder. When set, the unit journals every
     * protocol milestone — served exchanges, resolutions
     * (ok/recovered/unknown), timeouts, abandonments, crash/restart
     * edges. The recorder is a pure observer (no RNG, no state reads
     * the protocol depends on), so attached runs stay bit-identical
     * to detached ones. Nullptr detaches; the disabled path is one
     * branch per milestone.
     */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

  private:
    /** One 1-way exchange this initiator has not yet resolved. */
    struct PendingExchange
    {
        std::uint64_t xid = 0;
        noc::NodeId partner = 0;
        int recoverTries = 0;
        sim::Tick startTick = 0; ///< initiation time, for trace spans
    };

    /** One served exchange: (stamp, delta-for-initiator). Its
     *  initiator is the parallel entry of servedKeys_. Both fields stay
     *  full width: a Byzantine initiator picks its own stamps. */
    struct ServedRecord
    {
        std::uint64_t xid = 0;
        coin::Coins delta = 0;
    };
    static_assert(sizeof(ServedRecord) == 16,
                  "served record must stay 16 bytes");

    /** Index range [first, last) of one initiator's served run. */
    struct ServedRun
    {
        std::size_t first = 0;
        std::size_t last = 0;
    };

    /**
     * Locally computable imbalance: holding coins with no need, or
     * active with none — either keeps the refresh cadence capped so
     * the tile does not back off while it has business to transact.
     */
    bool
    discontent() const
    {
        return (state_.max == 0 && state_.has > 0) ||
               (state_.max > 0 && state_.has == 0);
    }

    /** Active tile stranded in an idle neighborhood (Fig. 5). */
    bool
    isolated() const
    {
        return state_.max > 0 && iso_.isolated();
    }

    void scheduleNext(sim::Tick delay);
    void initiate();
    void initiateFourWay();
    void serveStatus(const noc::Packet &pkt);
    void serveRequest(const noc::Packet &pkt);
    void serveRecover(const noc::Packet &pkt);
    void collectStatus(const noc::Packet &pkt);
    void completeFourWay();
    void applyUpdate(const noc::Packet &pkt);
    void applyGroupUpdate(const noc::Packet &pkt);
    void coinsChanged();

    /** Send the 1-way CoinUpdate reply carrying @p delta for @p xid. */
    void sendOneWayUpdate(noc::NodeId dst, std::uint64_t xid,
                          coin::Coins delta, int flag);

    /** The in-flight exchange's update did not land in time. */
    void onExchangeTimeout();

    /** Background reconciliation driver for an unresolved exchange. */
    void pumpRecovery(std::uint64_t xid);

    /** Conclude a resolved 1-way exchange (normal or recovered). */
    void applyResolvedDelta(coin::Coins delta, coin::Coins partnerMax,
                            noc::NodeId partner);

    /** @p initiator's entries in the served log, oldest first. */
    ServedRun servedRun(noc::NodeId initiator) const;

    /**
     * Append @p rec to @p initiator's run (as found by servedRun),
     * dropping the run's oldest record past servedLogDepth.
     */
    void recordServed(ServedRun run, noc::NodeId initiator,
                      const ServedRecord &rec);

    /** Emit the exchange span for @p p resolving now as @p outcome. */
    void traceExchange(const PendingExchange &p, coin::Coins delta,
                       const char *outcome);

    sim::EventQueue &eq_;
    noc::Network &net_;
    trace::Tracer *tracer_ = nullptr;
    record::FlightRecorder *recorder_ = nullptr;
    AdversaryHook *adversary_ = nullptr;
    GuardSentry *sentry_ = nullptr;
    noc::NodeId self_;
    UnitConfig cfg_;
    sim::Rng rng_;
    coin::TileCoins state_{};
    coin::BackoffTimer timer_;
    coin::PartnerSelector selector_;
    coin::IsolationDetector iso_;
    bool running_ = false;
    bool crashed_ = false;
    bool quarantined_ = false;
    bool awaitingUpdate_ = false;
    /** Sources whose packets are dropped (quarantined neighbors). */
    std::vector<noc::NodeId> shunned_; ///< sorted
    /** Per-initiator serve cap imposed by the guardian. */
    struct ServeThrottle
    {
        std::uint32_t budget = 0;
        std::uint32_t used = 0;
    };
    /** Sorted by initiator. */
    std::vector<std::pair<noc::NodeId, ServeThrottle>> throttle_;
    /** Current in-flight 1-way exchange (at most one). */
    std::optional<PendingExchange> pending_;
    /** Timed-out exchanges being reconciled in the background. */
    std::vector<PendingExchange> unresolved_;
    /**
     * Recently served exchanges (partner side): the last
     * servedLogDepth per initiator, sorted by initiator and then by
     * age, so each initiator's entries form one contiguous run. The
     * initiator keys and the records are parallel arrays: a lookup
     * scans only the 4-byte keys.
     */
    std::vector<noc::NodeId> servedKeys_;
    std::vector<ServedRecord> servedRecords_;
    /** Per-center stamp of the last applied group update (dedup),
     *  sorted by center. */
    std::vector<std::pair<noc::NodeId, std::uint64_t>> groupSeen_;
    /** Monotonic exchange stamp; survives crash/restart (see restart). */
    std::uint64_t nextXid_ = 1;
    /** In-flight 4-way exchange: statuses gathered so far. */
    std::vector<std::pair<noc::NodeId, coin::TileCoins>> gathered_;
    std::size_t awaitedStatuses_ = 0;
    /** 4-way round tag: requests carry it, replies must echo it. */
    std::uint64_t fourWayGen_ = 0;
    /**
     * 4-way snapshot lock: after replying a status to a center, the
     * coin count is frozen until that center's update lands (or a
     * timeout). This is the synchronization primitive the paper says
     * the 4-way datapath requires (Section III-B); without it,
     * concurrent group rebalances act on stale snapshots and diverge.
     */
    bool snapshotHeld_ = false;
    noc::NodeId snapshotHolder_ = 0;
    sim::Timer refresh_;         ///< next self-initiated exchange
    sim::Timer updateTimeout_;   ///< armed while pending_ is in flight
    sim::Timer roundTimeout_;    ///< armed while a 4-way round gathers
    sim::Timer snapshotTimeout_; ///< armed while snapshotHeld_
    std::uint64_t initiated_ = 0;
    std::uint64_t moved_ = 0;
    std::uint64_t timedOut_ = 0;
    std::uint64_t recoversSent_ = 0;
    std::uint64_t recovered_ = 0;
    std::uint64_t duplicatesIgnored_ = 0;
    std::uint64_t corruptedDropped_ = 0;
    std::uint64_t abandoned_ = 0;
    std::uint64_t shunnedDrops_ = 0;
    std::uint64_t throttledDrops_ = 0;
};

} // namespace blitz::blitzcoin

#endif // BLITZ_BLITZCOIN_UNIT_HPP
