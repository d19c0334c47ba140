/**
 * @file
 * Decentralized coin audit / remint watchdog.
 *
 * The exchange protocol conserves coins against any loss it can
 * reconcile (see unit.hpp), but two faults are beyond its reach: a
 * crashed tile destroys the coins in its registers, and an exchange
 * whose outcome was evicted from the partner's served log leaves one
 * half applied. The paper's Section VI-C sketches the remedy — a slow,
 * low-priority audit sweep that re-counts the cluster and mints or
 * burns the difference against the provisioned total.
 *
 * The model implements the audit as a cluster-scoped watchdog. In the
 * RTL this would be a rotating-token scan on the service plane; here
 * the scan's *outcome* is modeled (the census plus the largest-remainder
 * correction), keeping the packet cost out of the measured traffic
 * while preserving the architectural contract: after reconcile(), the
 * sum over alive units equals the seeded total exactly.
 */

#ifndef BLITZ_BLITZCOIN_AUDIT_HPP
#define BLITZ_BLITZCOIN_AUDIT_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "coin/ledger.hpp"
#include "unit.hpp"

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::blitzcoin {

class IntegrityGuardian;

/** Result of one audit sweep. */
struct AuditReport
{
    /** Coins counted across alive (non-crashed) units. */
    coin::Coins counted = 0;
    /** Provisioned total the cluster should hold. */
    coin::Coins expected = 0;
    /** expected - counted: positive means coins were destroyed. */
    coin::Coins gap = 0;
    /** Units skipped because they were crashed at sweep time. */
    std::size_t crashedUnits = 0;
    /** Units skipped because the guardian quarantined them. */
    std::size_t quarantinedUnits = 0;
};

/**
 * Audit watchdog over a set of BlitzCoin units.
 *
 * Does not own the units; the harness (ChaosCluster, Soc) registers
 * them once and calls audit()/reconcile() at its chosen cadence.
 */
class ClusterAudit
{
  public:
    /** @param expected the provisioned cluster coin total. */
    explicit ClusterAudit(coin::Coins expected);

    /** Register a unit in the sweep (not owned; must outlive this). */
    void track(BlitzCoinUnit &unit);

    coin::Coins expected() const { return expected_; }

    /** Retarget the provisioned total (cluster reprovisioning). */
    void setExpected(coin::Coins expected) { expected_ = expected; }

    /** Census of the alive units; no state is modified. */
    AuditReport audit() const;

    /**
     * Close the gap: mint (or burn) the difference across alive units,
     * each share proportional to the unit's max target — coins return
     * where the demand is — with largest-remainder rounding so the
     * correction is exact. Idle sweeps (gap 0) are free. Returns the
     * pre-correction report.
     */
    AuditReport reconcile();

    /** Sweeps that found a non-zero gap. */
    std::uint64_t gapsClosed() const { return gapsClosed_; }

    /** Total coins minted (positive gaps) across all sweeps. */
    coin::Coins coinsMinted() const { return minted_; }

    /** Total coins burned (negative gaps) across all sweeps. */
    coin::Coins coinsBurned() const { return burned_; }

    /**
     * Attach the flight recorder. reconcile() then journals every
     * correction as Remint/Burn records.
     */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    /** Tick source for journaled corrections (harness-provided). */
    void
    setClock(std::function<sim::Tick()> clock)
    {
        clock_ = std::move(clock);
    }

    /**
     * Attach the integrity guardian. reconcile() then reports every
     * correction as a legitimate grant so the guardian's conservation
     * books don't flag audit remints as counterfeit coins.
     */
    void setGuardian(IntegrityGuardian *guardian)
    {
        guardian_ = guardian;
    }

  private:
    coin::Coins expected_;
    std::vector<BlitzCoinUnit *> units_;
    record::FlightRecorder *recorder_ = nullptr;
    IntegrityGuardian *guardian_ = nullptr;
    /** Tick source for journaled corrections (see setClock). */
    std::function<sim::Tick()> clock_;
    std::uint64_t gapsClosed_ = 0;
    coin::Coins minted_ = 0;
    coin::Coins burned_ = 0;
};

} // namespace blitz::blitzcoin

#endif // BLITZ_BLITZCOIN_AUDIT_HPP
