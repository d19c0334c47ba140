#include "network.hpp"

#include <utility>

#include "record/recorder.hpp"
#include "trace/health.hpp"

namespace blitz::noc {

namespace {
constexpr std::size_t kPoolBlockEvents = 64;
} // namespace

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::CoinStatus:  return "CoinStatus";
      case MsgType::CoinUpdate:  return "CoinUpdate";
      case MsgType::CoinRequest: return "CoinRequest";
      case MsgType::RegRead:     return "RegRead";
      case MsgType::RegReadResp: return "RegReadResp";
      case MsgType::RegWrite:    return "RegWrite";
      case MsgType::Interrupt:   return "Interrupt";
      case MsgType::Generic:     return "Generic";
      case MsgType::CoinRecover: return "CoinRecover";
    }
    return "?";
}

Network::Network(sim::EventQueue &eq, Topology topo, sim::Tick hopLatency,
                 sim::Arena *arena)
    : eq_(eq), topo_(std::move(topo)), hopLatency_(hopLatency),
      handlers_(topo_.size()),
      linkFree_(topo_.size() * 4 * numPlanes, 0),
      ejectFree_(topo_.size() * numPlanes, 0), arena_(arena)
{
    BLITZ_ASSERT(hopLatency_ >= 1, "hop latency must be at least 1 cycle");
}

Network::~Network()
{
    for (PacketEvent *block : poolBlocks_)
        ::operator delete(block);
}

void
Network::fillHealth(trace::HealthReport &report) const
{
    report.bumpDet("noc.sent", static_cast<double>(packetsSent()));
    report.bumpDet("noc.delivered",
                   static_cast<double>(packetsDelivered()));
    report.bumpDet("noc.dropped", static_cast<double>(packetsDropped()));
    report.bumpDet("noc.hops", static_cast<double>(totalHops()));
}

void
Network::setHandler(NodeId node, Handler handler)
{
    BLITZ_ASSERT(node < handlers_.size(), "handler node out of range");
    auto fresh = std::make_shared<const Handler>(std::move(handler));
    if (deliveryDepth_ > 0 && handlers_[node])
        retired_.push_back(std::move(handlers_[node]));
    handlers_[node] = std::move(fresh);
}

std::size_t
Network::linkIndex(NodeId node, Dir d, Plane p) const
{
    return (static_cast<std::size_t>(node) * 4 +
            static_cast<std::size_t>(d)) * numPlanes +
           static_cast<std::size_t>(p);
}

std::size_t
Network::ejectIndex(NodeId node, Plane p) const
{
    return static_cast<std::size_t>(node) * numPlanes +
           static_cast<std::size_t>(p);
}

Network::PacketEvent *
Network::acquireEvent(const Packet &pkt, NodeId at)
{
    if (!freeEvents_) {
        // Grow the pool by a block; nodes are recycled forever after.
        sim::Arena *a = arena_;
        auto *block = static_cast<PacketEvent *>(
            a ? a->allocate(kPoolBlockEvents * sizeof(PacketEvent),
                            alignof(PacketEvent))
              : ::operator new(kPoolBlockEvents *
                               sizeof(PacketEvent)));
        const std::uint64_t epoch = a ? a->epoch() : 0;
        for (std::size_t i = 0; i < kPoolBlockEvents; ++i) {
            PacketEvent *pe =
                ::new (static_cast<void *>(block + i)) PacketEvent;
            pe->poolEpoch = epoch;
            pe->nextFree = freeEvents_;
            freeEvents_ = pe;
        }
        if (!a)
            poolBlocks_.push_back(block);
    }
    PacketEvent *pe = freeEvents_;
    freeEvents_ = pe->nextFree;
    pe->pkt = pkt;
    pe->at = at;
    return pe;
}

void
Network::releaseEvent(PacketEvent *pe)
{
    // Use-after-reset tripwire: an arena-backed node must never be
    // recycled after the arena has been reset out from under it (e.g.
    // a pooled event crossing a sweep-replication boundary).
    BLITZ_ASSERT(!arena_ || arena_->epoch() == pe->poolEpoch,
                 "packet event outlived its arena (use-after-reset)");
    pe->nextFree = freeEvents_;
    freeEvents_ = pe;
}

std::uint64_t
Network::send(Packet pkt)
{
    BLITZ_ASSERT(pkt.src < topo_.size() && pkt.dst < topo_.size(),
                 "packet endpoints out of range");
    pkt.seq = nextSeq_++;
    pkt.injectTick = eq_.now();
    ++sent_;
    hopNode(acquireEvent(pkt, pkt.src));
    return pkt.seq;
}

void
Network::scheduleDelivery(const Packet &pkt, NodeId at,
                          sim::Tick extraDelay)
{
    // Ejection port: serializes deliveries into the endpoint.
    auto &free = ejectFree_[ejectIndex(at, pkt.plane)];
    sim::Tick depart = std::max(eq_.now() + extraDelay, free);
    free = depart + hopLatency_;
    eq_.schedule(depart + hopLatency_, Deliver{this, acquireEvent(pkt, at)},
                 sim::Priority::NocTransfer);
}

void
Network::finishDelivery(PacketEvent *pe)
{
    ++delivered_;
    latency_.add(static_cast<double>(eq_.now() - pe->pkt.injectTick));
    if (recorder_)
        recorder_->nocDeliver(eq_.now(), pe->at,
                              static_cast<int>(pe->pkt.plane),
                              static_cast<int>(pe->pkt.type),
                              pe->pkt.seq, pe->pkt.injectTick);
    // Pin the handler installed *now* by raw pointer: the delivery
    // depth keeps setHandler() from destroying it reentrantly (the
    // old handler parks in retired_ until the depth returns to zero),
    // so no shared_ptr copy — and no pair of atomic refcount ops — is
    // paid per packet.
    const Handler *h = handlers_[pe->at].get();
    const Packet pkt = pe->pkt;
    releaseEvent(pe);
    if (h && *h) {
        ++deliveryDepth_;
        (*h)(pkt);
        if (--deliveryDepth_ == 0 && !retired_.empty())
            retired_.clear();
    }
}

void
Network::deliverCopies(const Packet &pkt, NodeId at,
                       const FaultDecision &fd)
{
    // A duplicated delivery is the original plus one copy, each
    // serialized through the ejection port in schedule order.
    const int copies = fd.duplicate ? 2 : 1;
    for (int k = 0; k < copies; ++k)
        scheduleDelivery(pkt, at, fd.delay);
}

bool
Network::tryFlatten(PacketEvent *pe, sim::Tick now)
{
    const Packet &pkt = pe->pkt;
    if (topo_.distance(pe->at, pkt.dst) != 1)
        return false;
    if (fault_ && !fault_->inert(pkt, now, now + hopLatency_))
        return false;
    // Identical to the exact step below minus the (inert) hook call:
    // same link reservation, same single event at the same call site,
    // so the insertion sequence — and every same-tick tie — matches
    // per-hop stepping bit for bit.
    const Dir d = topo_.nextHopDir(pe->at, pkt.dst);
    const std::size_t link = linkIndex(pe->at, d, pkt.plane);
    auto &free = linkFree_[link];
    sim::Tick depart = std::max(now, free);
    free = depart + hopLatency_;
    ++hops_;
    pe->at = pkt.dst;
    eq_.schedule(depart + hopLatency_, Step{this, pe},
                 sim::Priority::NocTransfer);
    return true;
}

void
Network::hopNode(PacketEvent *pe)
{
    const sim::Tick now = eq_.now();
    Packet &pkt = pe->pkt;
    const NodeId at = pe->at;

    if (at == pkt.dst) {
        FaultDecision fd;
        if (fault_)
            fd = fault_->onDeliver(pkt, at, now);
        if (fd.drop)
            ++dropped_;
        else
            deliverCopies(pkt, at, fd);
        releaseEvent(pe);
        return;
    }

    if (tryFlatten(pe, now))
        return;

    // Exact per-hop step: consult the fault hook, reserve the link,
    // and re-arm this node at the next router.
    Dir d = topo_.nextHopDir(at, pkt.dst);
    NodeId next = topo_.nextHop(at, pkt.dst);
    FaultDecision fd;
    if (fault_)
        fd = fault_->onLink(pkt, at, next, now);
    const std::size_t link = linkIndex(at, d, pkt.plane);
    auto &free = linkFree_[link];
    sim::Tick depart = std::max(now, free);
    free = depart + hopLatency_;
    ++hops_;
    if (fd.drop) {
        // The flit crossed the link (the slot is consumed) but never
        // arrives at the next router.
        ++dropped_;
        releaseEvent(pe);
        return;
    }
    pe->at = next;
    eq_.schedule(depart + hopLatency_ + fd.delay, Step{this, pe},
                 sim::Priority::NocTransfer);
    if (fd.duplicate) {
        // Mid-route duplication (not produced by the delivery-stage
        // fault model, but honored for hook generality): forward an
        // independent copy behind the original.
        eq_.schedule(depart + hopLatency_ + fd.delay,
                     Step{this, acquireEvent(pkt, next)},
                     sim::Priority::NocTransfer);
    }
}

} // namespace blitz::noc
