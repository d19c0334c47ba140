/**
 * @file
 * ChaosCluster: a fault-injected BlitzCoin mesh in a box.
 *
 * The harness the chaos bench and the fault/recovery tests share: a
 * w x h mesh where every tile runs a BlitzCoinUnit, a FaultPlane wired
 * into the NoC, crash/freeze windows wired into the units, and a
 * ClusterAudit watchdog tracking the provisioned coin total. Tests get
 * a one-line lossy cluster; the bench gets convergence and conservation
 * metrics that are deterministic in (config, seed).
 */

#ifndef BLITZ_FAULT_CHAOS_HPP
#define BLITZ_FAULT_CHAOS_HPP

#include <memory>
#include <optional>
#include <vector>

#include "blitzcoin/audit.hpp"
#include "blitzcoin/guardian.hpp"
#include "blitzcoin/unit.hpp"
#include "byzantine.hpp"
#include "fault_plane.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"

namespace blitz::trace {
class HealthReport;
class Registry;
class Tracer;
}

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::fault {

/** ChaosCluster construction parameters. */
struct ChaosConfig
{
    int width = 4;
    int height = 4;
    bool wrap = false;
    blitzcoin::UnitConfig unit{};
    FaultConfig fault{};
    /** Per-tile unit seeds are seedBase + node id. */
    std::uint64_t seedBase = 1000;
    /**
     * When a crash window ends, re-program the tile's pre-crash max
     * target and restart it (the workload resumes); coins come back
     * through the audit watchdog. Disable to leave restarted tiles
     * idle until the harness programs them.
     */
    bool restoreMaxOnRestart = true;
    /**
     * Period of the background audit/remint watchdog sweep; 0 leaves
     * the audit manual (reconcile()/quiesce() only). A periodic sweep
     * can momentarily mis-read in-flight exchanges as a gap — the next
     * sweep corrects it — so it is meant for runs with crash windows,
     * where waiting for quiesce would leave the pool depleted.
     */
    sim::Tick auditPeriod = 0;
    /**
     * Byzantine compromise schedule; empty specs leave every tile
     * honest (no plan is constructed, golden pins untouched).
     */
    ByzantineConfig byzantine{};
    /**
     * Arm the integrity guardian: shadow accounting over every tile
     * with the warn/throttle/quarantine ladder, swept on the audit
     * cadence (auditPeriod must be > 0). Off by default.
     */
    bool guardianEnabled = false;
    blitzcoin::GuardianConfig guardian{};
    /**
     * Backing store for the event slab and NoC packet pool; nullptr
     * heap-allocates. Sweep trials pass &sim::threadArena() so
     * replications on the same worker reuse the same chunks — the
     * cluster must then be destroyed before the arena resets (i.e.
     * live entirely inside one replication).
     */
    sim::Arena *arena = nullptr;
};

/**
 * A fault-injected all-tiles BlitzCoin cluster.
 *
 * Lifecycle: construct, seed coins/targets with setHas()/setMax(),
 * sealProvision(), startAll(), then drive eq() (or use
 * runUntilConverged()). Crash and freeze windows from the fault
 * schedule are applied to the units automatically. reconcile() runs
 * the audit watchdog; quiesce() drains, reconciles, and asserts the
 * seeded total is exactly restored.
 */
class ChaosCluster
{
  public:
    explicit ChaosCluster(const ChaosConfig &cfg);

    sim::EventQueue &eq() { return eq_; }
    noc::Network &net() { return net_; }
    FaultPlane &plane() { return plane_; }
    blitzcoin::ClusterAudit &audit() { return audit_; }
    /** The attack plan, or nullptr when every tile is honest. */
    ByzantinePlan *byzantinePlan() { return byzantine_.get(); }
    /** The integrity guardian, or nullptr when disabled. */
    blitzcoin::IntegrityGuardian *guardian() { return guardian_.get(); }
    std::size_t size() const { return units_.size(); }
    blitzcoin::BlitzCoinUnit &unit(std::size_t i) { return *units_[i]; }

    void setHas(std::size_t i, coin::Coins has);
    void setMax(std::size_t i, coin::Coins max);

    /**
     * Record the current cluster total as the provisioned amount the
     * audit watchdog defends. Call once, after seeding coins.
     */
    void sealProvision();

    void startAll();

    /** Coins held across alive (non-crashed) units. */
    coin::Coins totalCoins() const;

    /** Mean |has - alpha*max| over alive units (0 if cluster idle). */
    double clusterError() const;

    /**
     * Advance until clusterError() <= @p tol (checked every
     * @p checkEvery ticks) or @p deadline passes. Returns the tick at
     * which convergence was observed, or nullopt on deadline.
     */
    std::optional<sim::Tick> runUntilConverged(double tol,
                                               sim::Tick checkEvery,
                                               sim::Tick deadline);

    /**
     * Register the cluster's observables on @p reg (cluster coin
     * total, cluster error, per-unit balances, summed exchange
     * counters, audit/NoC/fault-plane/event-kernel counters) and
     * schedule a self-repeating Priority::Stats sampler every
     * @p interval ticks. Call once, before running; pass nullptr to
     * leave the cluster unobserved (the default — no sampler events
     * are scheduled, so golden digests are untouched).
     */
    void attachMetrics(trace::Registry *reg, sim::Tick interval);

    /**
     * Wire an event tracer into the fault plane, every unit, the
     * Byzantine plan and the guardian (spans for exchanges, instants
     * for injections/crash/recovery/quarantine). Nullptr detaches.
     */
    void attachTrace(trace::Tracer *t);

    /**
     * Wire the flight recorder into every layer: NoC deliveries,
     * fault-plane decisions, unit exchange milestones, crash/restart
     * transitions, and audit remints/burns all journal into @p rec.
     * Call *before* seeding coins so the provisioning mints are on
     * the log too — replay depends on the log opening with the full
     * provisioned state.
     *
     * @p snapshotEvery > 0 additionally schedules a self-repeating
     * Priority::Stats sweep that journals every tile's balance plus a
     * digest-carrying epoch mark — the bisector's binary-search keys.
     * Like attachMetrics, the recorder is passive: golden digests are
     * bit-identical with and without it (locked by tests).
     */
    void attachRecorder(record::FlightRecorder *rec,
                        sim::Tick snapshotEvery = 0);

    /**
     * Sum the cluster's deterministic outcome counters into
     * @p report's deterministic section: coin conservation (total vs
     * expected), audit remints/burns, per-ladder guardian counts,
     * fault-plane and NoC totals, unit exchange/recovery sums,
     * crashed/quarantined populations, and the event-kernel gauges.
     * bump/max-folds, so one report can aggregate many trials.
     */
    void fillHealth(trace::HealthReport &report) const;

    /** One audit watchdog sweep (mint/burn any gap). */
    blitzcoin::AuditReport reconcile() { return audit_.reconcile(); }

    /**
     * Drain in-flight traffic for @p drainTicks, run the audit
     * watchdog, and assert the conservation invariant: after the
     * sweep, the alive units hold exactly the provisioned total.
     * Returns the pre-sweep report (its gap is what the watchdog had
     * to close).
     */
    blitzcoin::AuditReport quiesce(sim::Tick drainTicks = 4096);

  private:
    void onCrash(noc::NodeId node);
    void onRestart(noc::NodeId node);
    void scheduleAudit();
    void scheduleSample();
    void scheduleSnapshot();
    /**
     * The one place that says which component sees the tracer and the
     * recorder. attachTrace/attachRecorder store their pointers and
     * call this; it only re-stores pointers, so it is idempotent.
     */
    void rewire();

    ChaosConfig cfg_;
    sim::EventQueue eq_;
    noc::Topology topo_;
    noc::Network net_;
    FaultPlane plane_;
    std::vector<std::unique_ptr<blitzcoin::BlitzCoinUnit>> units_;
    blitzcoin::ClusterAudit audit_;
    std::unique_ptr<ByzantinePlan> byzantine_;
    std::unique_ptr<blitzcoin::IntegrityGuardian> guardian_;
    /** Max target at crash time, restored on restart. */
    std::vector<coin::Coins> maxAtCrash_;
    trace::Registry *metrics_ = nullptr;
    sim::Tick sampleEvery_ = 0;
    trace::Tracer *tracer_ = nullptr;
    record::FlightRecorder *recorder_ = nullptr;
    sim::Tick snapshotEvery_ = 0;
    std::int64_t snapshotEpoch_ = 0;
};

} // namespace blitz::fault

#endif // BLITZ_FAULT_CHAOS_HPP
