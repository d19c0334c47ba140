/**
 * @file
 * Cycle-level packet-switched mesh network.
 *
 * The model operates at packet granularity with per-link, per-plane
 * serialization: each router output link forwards at most one packet per
 * cycle on each plane (the fabricated SoC guarantees one-cycle-per-hop
 * throughput at a fixed NoC voltage/frequency, Section IV-C). Packets
 * follow dimension-ordered XY routing, so delivery is deadlock-free and
 * per-flow ordering is preserved.
 *
 * Steady-state fast path (see DESIGN.md "Scheduler internals"): when
 * the remaining route has no active fault hook and every link is free
 * at its crossing tick, the traversal is flattened into a single
 * dst-arrival event instead of one event per hop; a packet rides one
 * pooled PacketEvent node for its whole flight, so the fault-free path
 * performs zero heap allocations per packet once the pool has warmed
 * up. The moment a fault plane, partition window, or busy link is in
 * play the network falls back to exact per-hop stepping.
 */

#ifndef BLITZ_NOC_NETWORK_HPP
#define BLITZ_NOC_NETWORK_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault_hook.hpp"
#include "packet.hpp"
#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "topology.hpp"

namespace blitz::trace {
class HealthReport;
}

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::noc {

/**
 * Event-driven NoC connecting one endpoint per mesh node.
 *
 * Endpoints register a delivery handler; Network::send injects a packet
 * at the current tick and the handler fires when the last hop (plus the
 * ejection cycle) completes.
 */
class Network
{
  public:
    using Handler = std::function<void(const Packet &)>;

    /**
     * @param eq event queue driving the simulation.
     * @param topo mesh shape (copied).
     * @param hopLatency cycles per router traversal; 1 matches the SoC.
     * @param arena backing store for the packet-event pool; nullptr
     *        (the default) heap-allocates. Pass a sweep worker's arena
     *        to recycle the pool across replications — the network
     *        must then be destroyed before the arena resets.
     */
    Network(sim::EventQueue &eq, Topology topo, sim::Tick hopLatency = 1,
            sim::Arena *arena = nullptr);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;
    ~Network();

    const Topology &topology() const { return topo_; }

    /**
     * Install the delivery callback for a node (replaces any previous).
     * Deliveries always route through the handler installed at delivery
     * time — packets already in flight land in the new handler, and a
     * handler may safely replace itself from inside its own invocation.
     */
    void setHandler(NodeId node, Handler handler);

    /**
     * Install (or clear, with nullptr) the fault-injection hook.
     * The hook is consulted on every link traversal and every ejection;
     * it must outlive the network or be cleared first.
     */
    void setFaultHook(FaultHook *hook) { fault_ = hook; }

    /**
     * Install (or clear, with nullptr) the flight recorder. When set,
     * every endpoint delivery is journaled (dst, plane, type, seq,
     * inject tick). Passive — it never schedules events or consults
     * RNG — and one branch per delivery when detached, never on the
     * per-hop path.
     */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    /**
     * Inject a packet at the current tick.
     * src/dst/plane/type/payload must be filled in by the caller;
     * seq and injectTick are assigned here.
     * @return the assigned sequence number.
     */
    std::uint64_t send(Packet pkt);

    /** Total packets injected. */
    std::uint64_t packetsSent() const { return sent_; }

    /** Total packets delivered to handlers. */
    std::uint64_t packetsDelivered() const { return delivered_; }

    /** Packets discarded by the fault hook (link + ejection stages). */
    std::uint64_t packetsDropped() const { return dropped_; }

    /** Total router-to-router hops traversed. */
    std::uint64_t totalHops() const { return hops_; }

    /** Packet totals into @p report's deterministic section (noc.*). */
    void fillHealth(trace::HealthReport &report) const;

    /** End-to-end latency distribution (ticks). */
    const sim::Summary &latency() const { return latency_; }

  private:
    /**
     * Pooled in-flight packet state. One node carries a packet from
     * injection to delivery (or drop) — per-hop events reschedule the
     * same node instead of copying the packet into a fresh closure.
     * When arena-backed, the node remembers the arena's reset epoch at
     * allocation: a node recycled after the arena reset is a
     * use-after-reset, and the release-side assert turns that silent
     * corruption into an immediate failure.
     */
    struct PacketEvent
    {
        Packet pkt;
        NodeId at;
        PacketEvent *nextFree;
        std::uint64_t poolEpoch;
    };

    /** Event callback: advance a pooled packet at its current router. */
    struct Step
    {
        Network *net;
        PacketEvent *pe;
        void operator()() const { net->hopNode(pe); }
    };

    /** Event callback: finish a delivery at the ejection port. */
    struct Deliver
    {
        Network *net;
        PacketEvent *pe;
        void operator()() const { net->finishDelivery(pe); }
    };

    /** Index of the (node, dir, plane) output-link reservation slot. */
    std::size_t linkIndex(NodeId node, Dir d, Plane p) const;

    /** Local ejection-port reservation slot for (node, plane). */
    std::size_t ejectIndex(NodeId node, Plane p) const;

    PacketEvent *acquireEvent(const Packet &pkt, NodeId at);
    void releaseEvent(PacketEvent *pe);

    /** Advance a packet at its current router (arrival or injection). */
    void hopNode(PacketEvent *pe);

    /**
     * Fast path for the final hop: when the fault hook is provably
     * inert for the crossing window, skip its consultation and
     * schedule the arrival directly. Restricted to distance == 1 —
     * the one event scheduled is the same event, at the same call
     * site, as exact stepping, so its sequence number (and therefore
     * every same-tick tie) is untouched. Eliding *intermediate* hop
     * events of longer routes is not order-preserving: it shifts the
     * global insertion sequence, which flips same-(tick, priority)
     * ties between unrelated packets' arrivals (verified against the
     * golden traces — see DESIGN.md). Returns false (leaving no
     * trace) when the route is longer or the hook may act; the caller
     * then steps one hop the exact way.
     */
    bool tryFlatten(PacketEvent *pe, sim::Tick now);

    /** Apply a delivery verdict: schedule 1 + duplicate copies. */
    void deliverCopies(const Packet &pkt, NodeId at,
                       const FaultDecision &fd);

    /** Reserve the ejection port and schedule one handler invocation. */
    void scheduleDelivery(const Packet &pkt, NodeId at,
                          sim::Tick extraDelay);

    void finishDelivery(PacketEvent *pe);

    sim::EventQueue &eq_;
    Topology topo_;
    sim::Tick hopLatency_;
    /**
     * Shared-ptr'd so reentrant replacement stays safe without
     * copying the std::function: a delivery invokes through the raw
     * pointer, and setHandler() during a delivery parks the old
     * handler in retired_ (cleared when the delivery depth returns to
     * zero) instead of destroying it.
     */
    std::vector<std::shared_ptr<const Handler>> handlers_;
    FaultHook *fault_ = nullptr;
    record::FlightRecorder *recorder_ = nullptr;
    /** Earliest tick each output link is free, per (node, dir, plane). */
    std::vector<sim::Tick> linkFree_;
    /** Earliest tick each ejection port is free, per (node, plane). */
    std::vector<sim::Tick> ejectFree_;
    sim::Arena *arena_;
    PacketEvent *freeEvents_ = nullptr;
    /** Heap-owned pool blocks (empty when arena-backed). */
    std::vector<PacketEvent *> poolBlocks_;
    /**
     * Deliveries currently executing. While nonzero, a handler
     * replaced by setHandler() parks in retired_ instead of being
     * destroyed, so the raw pointer the in-flight delivery is invoking
     * through stays valid without a per-delivery shared_ptr copy (two
     * atomic refcount ops per packet on the old pin-by-copy path).
     */
    std::uint32_t deliveryDepth_ = 0;
    std::vector<std::shared_ptr<const Handler>> retired_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t hops_ = 0;
    std::uint64_t nextSeq_ = 1;
    sim::Summary latency_;
};

} // namespace blitz::noc

#endif // BLITZ_NOC_NETWORK_HPP
