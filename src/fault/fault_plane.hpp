/**
 * @file
 * Deterministic fault-injection plane for the NoC and the BlitzCoin
 * units.
 *
 * The paper argues the protocol survives lost packets and transiently
 * negative counters (Section IV-A); this subsystem makes that claim
 * testable as infrastructure rather than ad-hoc test scaffolding. A
 * FaultPlane is configured with drop/delay/duplication/corruption
 * rates (globally, per plane, per node, or per link), tile
 * crash/freeze/restart windows, and timed mesh partitions, then
 * attached to a noc::Network. Every verdict draws from a seeded RNG
 * owned by the plane, and the event kernel is single threaded, so a
 * (seed, config) pair fully determines the fault pattern — chaos runs
 * are replayable and bit-identical across sweep thread counts.
 */

#ifndef BLITZ_FAULT_FAULT_PLANE_HPP
#define BLITZ_FAULT_FAULT_PLANE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "noc/fault_hook.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace blitz::trace {
class HealthReport;
class Tracer;
}

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::fault {

/** Fault rates applied at one scope (global, plane, node, or link). */
struct FaultRates
{
    /** Probability a packet is discarded at a stage. */
    double drop = 0.0;
    /** Probability a packet is held back at a stage. */
    double delay = 0.0;
    /** Uniform delay bounds (ticks) when a delay fires. */
    sim::Tick delayMin = 1;
    sim::Tick delayMax = 64;
    /** Probability a delivery is duplicated (retransmission artifact). */
    double duplicate = 0.0;
    /** Probability a payload word is damaged (sets Packet::corrupted). */
    double corrupt = 0.0;

    bool
    quiet() const
    {
        return drop <= 0.0 && delay <= 0.0 && duplicate <= 0.0 &&
               corrupt <= 0.0;
    }
};

/**
 * A tile outage. While [from, until) is in force every packet to or
 * from the node is discarded. `freeze` keeps the tile's architectural
 * state (a clock-gated stall); a non-freeze window is a crash — the
 * harness is told through onNodeDown/onNodeUp so it can destroy and
 * later restore the tile's unit state (coins on a crashed tile are
 * lost and must be reminted by the audit watchdog).
 */
struct OutageWindow
{
    noc::NodeId node = 0;
    sim::Tick from = 0;
    sim::Tick until = 0; ///< exclusive; sim::maxTick = never recovers
    bool freeze = false;
};

/** A timed cut of specific mesh links (both directions). */
struct PartitionWindow
{
    sim::Tick from = 0;
    sim::Tick until = 0; ///< exclusive
    /** Unordered (a, b) adjacent pairs whose link is severed. */
    std::vector<std::pair<noc::NodeId, noc::NodeId>> links;
};

/** Full fault-plane schedule and rates. */
struct FaultConfig
{
    std::uint64_t seed = 1;
    /** Baseline rates for every packet at every stage. */
    FaultRates base{};
    /** Per-NoC-plane override (most specific scope wins). */
    std::map<int, FaultRates> planes;
    /** Per-node override, matched on a packet's src or dst. */
    std::map<noc::NodeId, FaultRates> nodes;
    /**
     * Per-message-type override (noc::MsgType cast to int) — e.g. drop
     * only CoinStatus to exercise one arm of the exchange protocol.
     */
    std::map<int, FaultRates> messages;
    /** Per-link override, matched on the (from, to) hop, directional. */
    std::map<std::pair<noc::NodeId, noc::NodeId>, FaultRates> links;
    // Precedence, most specific first: links, nodes, messages, planes,
    // base.
    /**
     * Restrict rate-based faults to the coin protocol messages
     * (CoinStatus/CoinUpdate/CoinRequest/CoinRecover). Outages and
     * partitions always apply to all traffic.
     */
    bool coinTrafficOnly = false;
    /**
     * Apply rate-based faults only at the delivery (ejection) stage —
     * a per-packet loss model at the tile boundary — instead of at
     * every link crossing, where the end-to-end rate compounds with
     * hop count. Outages and partitions are unaffected.
     */
    bool endpointOnly = false;
    std::vector<OutageWindow> outages;
    std::vector<PartitionWindow> partitions;
};

/** Injection counters, by mechanism. */
struct FaultStats
{
    std::uint64_t drops = 0;        ///< rate-based discards
    std::uint64_t delays = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t outageDrops = 0;    ///< discards at down nodes
    std::uint64_t partitionDrops = 0; ///< discards on severed links
};

/**
 * Concrete noc::FaultHook driven by a FaultConfig.
 *
 * Attach with noc::Network::setFaultHook(&plane). If outage windows
 * are configured, also call armOutageSchedule(eq) so the plane fires
 * the onNodeDown/onNodeUp callbacks at the window edges; packet
 * filtering at down nodes works from the schedule alone and needs no
 * event queue.
 */
class FaultPlane : public noc::FaultHook
{
  public:
    explicit FaultPlane(FaultConfig cfg);

    /** Injection counters. */
    const FaultStats &stats() const { return stats_; }

    /** Injection totals into @p report's deterministic section. */
    void fillHealth(trace::HealthReport &report) const;

    /** Attach to a network (convenience for setFaultHook). */
    void
    attach(noc::Network &net)
    {
        net.setFaultHook(this);
    }

    /** True when @p node is inside an outage window at @p now. */
    bool nodeDown(noc::NodeId node, sim::Tick now) const;

    /**
     * Attach an event tracer (or detach with nullptr). Scheduled
     * outage and partition windows are emitted as complete spans when
     * the tracer changes (they are known up front), so re-setting the
     * same tracer emits nothing; rate-based injections emit one
     * instant each as they fire. Null by default — the disabled path
     * adds one branch per *injected* fault, never per packet.
     */
    void setTrace(trace::Tracer *t);

    /**
     * Attach the flight recorder (or detach with nullptr). Every fault
     * *decision* — rate-based drop/delay/duplicate/corrupt, outage
     * discard, partition discard — is journaled with the packet's
     * endpoints, sequence number, and the site it fired at. The
     * network records deliveries; the plane records why a packet did
     * not arrive, so a replay diff can separate "the fault pattern
     * changed" from "the protocol reacted differently".
     */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    /**
     * Schedule the outage transitions on @p eq, invoking onNodeDown /
     * onNodeUp (when set) at each non-freeze window edge so the
     * harness can crash and restart the affected unit. Freeze windows
     * fire onNodeFrozen/onNodeThawed instead. Call once, before
     * running.
     */
    void armOutageSchedule(sim::EventQueue &eq);

    std::function<void(noc::NodeId)> onNodeDown;
    std::function<void(noc::NodeId)> onNodeUp;
    std::function<void(noc::NodeId)> onNodeFrozen;
    std::function<void(noc::NodeId)> onNodeThawed;

    // noc::FaultHook
    noc::FaultDecision onLink(noc::Packet &pkt, noc::NodeId from,
                              noc::NodeId to, sim::Tick now) override;
    noc::FaultDecision onDeliver(noc::Packet &pkt, noc::NodeId at,
                                 sim::Tick now) override;
    bool inert(const noc::Packet &pkt, sim::Tick from,
               sim::Tick until) const override;

  private:
    /** Most specific rates for a packet at a stage. */
    const FaultRates &ratesFor(const noc::Packet &pkt, noc::NodeId from,
                               noc::NodeId to) const;

    /** Rate-based faults shared by both stages. */
    noc::FaultDecision applyRates(noc::Packet &pkt, const FaultRates &r,
                                  bool deliveryStage, sim::Tick now);

    bool coinMessage(const noc::Packet &pkt) const;
    bool linkCut(noc::NodeId a, noc::NodeId b, sim::Tick now) const;

    FaultConfig cfg_;
    sim::Rng rng_;
    FaultStats stats_;
    trace::Tracer *tracer_ = nullptr;
    record::FlightRecorder *recorder_ = nullptr;
};

/**
 * Build a partition window cutting every mesh link between column
 * @p cutX and column cutX + 1 — with XY routing this splits the mesh
 * into two halves that cannot reach each other for the duration.
 */
PartitionWindow columnPartition(const noc::Topology &topo, int cutX,
                                sim::Tick from, sim::Tick until);

} // namespace blitz::fault

#endif // BLITZ_FAULT_FAULT_PLANE_HPP
