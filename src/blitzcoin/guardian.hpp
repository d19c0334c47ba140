/**
 * @file
 * Runtime integrity guardian: neighbor-local detection, escalation,
 * and quarantine of Byzantine tiles (DESIGN.md ch.8).
 *
 * The paper's conservation and convergence claims assume every tile
 * runs the protocol honestly. The guardian removes that assumption at
 * runtime: each tracked unit carries a GuardSentry — an observation
 * tap recording, per link, the coins this tile actually gained from
 * each counterparty plus serve/stale/throttle evidence — and the
 * guardian folds those windows into per-tile shadow books on the
 * ClusterAudit cadence.
 *
 * The accounting is counterparty-only: tile T's shadow balance is its
 * granted coins minus what *other* tiles' sentries report having
 * gained from T. A tile's own sentry never feeds its own shadow, so a
 * compromised tile cannot talk its books straight — every coin it
 * counterfeits (local inflation, forged exchange replies) shows up as
 * a strictly growing deviation between its architectural counter and
 * its shadow. Hoarding, request spamming, and stale replays get their
 * own detectors (see the table in DESIGN.md ch.8).
 *
 * Escalation is warn -> throttle -> quarantine, with one *conviction*
 * per sweep: of the tiles past the quarantine threshold, only the
 * strongest case (most strikes, then largest deviation) is removed,
 * and every survivor is granted amnesty — its strikes, escalation
 * state, and shadow books are vacated. A liar's forged reports
 * pollute its victims' books at a rate comparable to its own, so
 * victims can reach the threshold in the very sweep that convicts the
 * attacker; striking the convicted tile's testimony and re-trying
 * everyone against live evidence is what keeps honest tiles out of
 * quarantine, while real co-attackers re-convict themselves within a
 * few windows from evidence they cannot stop generating. Quarantine
 * fences the tile's counter, makes every neighbor shun it (re-forming
 * the exchange neighborhood), and lets the ClusterAudit remint
 * watchdog reclaim the fenced coins — total budget is conserved
 * within a bounded leak window. Every detection, escalation, and
 * amnesty is journaled to the flight recorder, so verdicts are
 * replay-auditable.
 *
 * Sharding: sentry writes happen at the owning unit's locus (single
 * writer inside a superstep); sweep() runs in the serial lane between
 * supersteps, where it is the only active context — the escalation
 * state it rewrites across units is race-free by the BSP contract,
 * and sweeps are bit-identical at any shard count.
 */

#ifndef BLITZ_BLITZCOIN_GUARDIAN_HPP
#define BLITZ_BLITZCOIN_GUARDIAN_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "unit.hpp"

namespace blitz::blitzcoin {

/**
 * Per-tile observation tap. The owning unit records what it actually
 * gained per counterparty (noteFlow: the applied delta, which even a
 * compromised unit cannot falsify — it is literally the counter
 * adjustment) plus the serve/stale/throttle evidence counters. The
 * guardian reads and clears the window once per sweep.
 */
class GuardSentry
{
  public:
    /** One counterparty's window of observations. */
    struct LinkWindow
    {
        coin::Coins net = 0;          ///< coins gained from the peer
        std::uint32_t served = 0;     ///< 1-way serves for the peer
        std::uint32_t stale = 0;      ///< stale/replayed updates seen
        std::uint32_t throttled = 0;  ///< serves dropped by throttle
    };

    void
    noteFlow(noc::NodeId partner, coin::Coins delta)
    {
        links_[partner].net += delta;
    }

    void noteServed(noc::NodeId initiator) { ++links_[initiator].served; }
    void noteStale(noc::NodeId from) { ++links_[from].stale; }

    void
    noteThrottled(noc::NodeId initiator)
    {
        ++links_[initiator].throttled;
    }

    /** Deterministic (node-ordered) view of the current window. */
    const std::map<noc::NodeId, LinkWindow> &links() const
    {
        return links_;
    }

    void clearWindow() { links_.clear(); }

  private:
    std::map<noc::NodeId, LinkWindow> links_;
};

/** Detector bits (recorder "mask" field / strike accounting). */
inline constexpr std::uint32_t kDetConservation = 1u << 0;
inline constexpr std::uint32_t kDetHoard = 1u << 1;
inline constexpr std::uint32_t kDetSpam = 1u << 2;
inline constexpr std::uint32_t kDetStale = 1u << 3;

/** Guardian recorder event codes (record::Record flag field). */
inline constexpr std::uint8_t kGuardianDetect = 0;
inline constexpr std::uint8_t kGuardianWarn = 1;
inline constexpr std::uint8_t kGuardianThrottle = 2;
inline constexpr std::uint8_t kGuardianQuarantine = 3;
inline constexpr std::uint8_t kGuardianAmnesty = 4;

/** Escalation ladder per tile (monotonic). */
enum class TileHealth : std::uint8_t
{
    Healthy = 0,
    Warned = 1,
    Throttled = 2,
    Quarantined = 3,
};

/**
 * Detector thresholds and the escalation ladder. Defaults are tuned
 * against the honest protocol's worst case on the 4096-tick audit
 * cadence (see DESIGN.md ch.8 for the derivations):
 *  - conservation: a discontent tile initiates at most every
 *    minInterval + RTT ~= 11 ticks; in-flight exchanges straddling a
 *    sweep skew the books by at most a few pairwise deltas, so the
 *    slack sits above that and the deviation must keep *growing*.
 *  - spam: the honest initiation ceiling is ~372 serves per window
 *    (4096 / (minInterval 8 + RTT 3)); a spammer driving its cadence
 *    to 2-4 ticks lands at 600+.
 *  - hoard: a tile's excess over its demand-weighted fair share must
 *    be non-draining for several consecutive windows — convergence
 *    transients and partition imbalances drain or end sooner.
 */
struct GuardianConfig
{
    /** Conservation deviation below this is in-flight noise. */
    coin::Coins conservationSlack = 48;
    /** Consecutive growing-deviation windows before a strike. */
    int conservationPersist = 2;
    /** Serves (incl. throttled attempts) per window that spell spam. */
    std::uint32_t spamServedMax = 384;
    /** Consecutive spam windows before a strike. */
    int spamPersist = 2;
    /** Minimum excess over the fair share to count as hoarding. */
    coin::Coins hoardExcessMin = 16;
    /** Consecutive non-draining excess windows before a strike. */
    int hoardPersist = 3;
    /** Stale/replayed updates per window before a strike. */
    std::uint32_t staleWindowMax = 12;
    /** Strike thresholds of the escalation ladder. */
    int warnStrikes = 1;
    int throttleStrikes = 2;
    int quarantineStrikes = 4;
    /** Per-initiator serve budget per window once throttled. */
    std::uint32_t throttleServeBudget = 2;
    /**
     * Bounded leak window: the cluster total may deviate from the
     * provisioned budget by at most this many coins once every
     * attacker is quarantined and the audit has swept (acceptance
     * bound for tests/benches, not a detector input).
     */
    coin::Coins leakBound = 96;
};

/**
 * The guardian proper. track() every unit of the cluster (including
 * the ones that later turn out to be compromised — the guardian has
 * no side channel), wire noteGrant() into every legitimate mint/burn
 * site (provisioning, audit corrections), and call sweep() on the
 * audit cadence from the serial lane, *before* ClusterAudit::
 * reconcile() so a quarantine decision is visible to the census that
 * reclaims the fenced coins in the same tick.
 */
class IntegrityGuardian
{
  public:
    explicit IntegrityGuardian(const GuardianConfig &cfg = {});

    /** Track @p unit: installs its sentry tap. */
    void track(BlitzCoinUnit &unit);

    /**
     * Book a legitimate external grant (provisioning setHas, audit
     * mint/burn share) against @p tile's shadow balance. Keeping the
     * books in sync here is what makes audit corrections invisible to
     * the conservation detector.
     */
    void noteGrant(noc::NodeId tile, coin::Coins amount);

    /**
     * One detection pass: absorb every sentry window, update the
     * shadow books, run the detectors, escalate. Serial-lane only.
     */
    void sweep();

    TileHealth health(noc::NodeId tile) const;
    coin::Coins shadow(noc::NodeId tile) const;
    int strikes(noc::NodeId tile) const;

    std::uint64_t sweepsRun() const { return sweeps_; }
    std::uint64_t detections() const { return detections_; }
    std::uint64_t warnings() const { return warnings_; }
    std::uint64_t throttles() const { return throttles_; }
    std::uint64_t quarantines() const { return quarantines_; }

    /** Attach the flight recorder: every detection and escalation is
     *  journaled. */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    void setTrace(trace::Tracer *t) { tracer_ = t; }

    /** Clock for journaled event timestamps (the anchor queue's). */
    void setClock(std::function<sim::Tick()> clock)
    {
        clock_ = std::move(clock);
    }

    const GuardianConfig &config() const { return cfg_; }

  private:
    struct TileState
    {
        BlitzCoinUnit *unit = nullptr;
        std::unique_ptr<GuardSentry> sentry;
        coin::Coins shadow = 0;   ///< granted - counterparty-observed
        coin::Coins lastDev = 0;  ///< previous sweep's deviation
        coin::Coins lastExcess = 0;
        int consConsec = 0;
        int hoardConsec = 0;
        int spamConsec = 0;
        int strikes = 0;
        TileHealth health = TileHealth::Healthy;
        bool wasCrashed = false; ///< resync the books on revival
        // Per-sweep scratch (counterparty evidence folded in phase A).
        coin::Coins flowAgainst = 0;
        std::uint64_t spamEvidence = 0;
        std::uint64_t staleEvidence = 0;
    };

    void recordEvent(std::uint8_t event, noc::NodeId tile,
                     std::int64_t strikes, std::int64_t mask,
                     std::int64_t evidence);
    void escalate(noc::NodeId id, TileState &st,
                  std::vector<noc::NodeId> &quarantineNow);
    void quarantineTile(noc::NodeId id);

    GuardianConfig cfg_;
    std::map<noc::NodeId, TileState> tiles_;
    record::FlightRecorder *recorder_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
    std::function<sim::Tick()> clock_;
    std::uint64_t sweeps_ = 0;
    std::uint64_t detections_ = 0;
    std::uint64_t warnings_ = 0;
    std::uint64_t throttles_ = 0;
    std::uint64_t quarantines_ = 0;
};

} // namespace blitz::blitzcoin

#endif // BLITZ_BLITZCOIN_GUARDIAN_HPP
