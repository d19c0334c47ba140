#include "network.hpp"

#include <utility>

#include "record/recorder.hpp"
#include "sim/shard.hpp"
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
      ejectFree_(topo_.size() * numPlanes, 0), arena_(arena),
      blocks_(1)
{
    BLITZ_ASSERT(hopLatency_ >= 1, "hop latency must be at least 1 cycle");
    blocks_[0].arena = arena_;
}

Network::~Network()
{
    for (Block &b : blocks_)
        for (PacketEvent *block : b.poolBlocks)
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
Network::enableSharding(sim::ShardGroup &group)
{
    BLITZ_ASSERT(!sharded_, "network already sharded");
    BLITZ_ASSERT(packetsSent() == 0,
                 "enableSharding() must precede all traffic");
    sharded_ = true;
    group_ = &group;
    // One state block per shard plus the serial lane; pools draw from
    // the group's per-shard arenas so parallel-phase growth is
    // thread-private by construction.
    blocks_.assign(group.shards() + 1, Block{});
    for (std::uint32_t s = 0; s <= group.shards(); ++s)
        blocks_[s].arena = &group.shardArena(s);
    srcSeq_.assign(topo_.size(), 0);
}

Network::Block &
Network::curBlock()
{
    if (!sharded_)
        return blocks_[0];
    const sim::ShardContext *c = sim::tlsShardContext();
    return blocks_[c ? c->shard : group_->shards()];
}

void
Network::setHandler(NodeId node, Handler handler)
{
    BLITZ_ASSERT(node < handlers_.size(), "handler node out of range");
    auto fresh = std::make_shared<const Handler>(std::move(handler));
    Block &blk = curBlock();
    if (blk.deliveryDepth > 0 && handlers_[node])
        blk.retired.push_back(std::move(handlers_[node]));
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
Network::acquireEvent(const Packet &pkt, NodeId at, Block &blk)
{
    if (!blk.freeEvents) {
        // Grow the pool by a block; nodes are recycled forever after.
        sim::Arena *a = blk.arena;
        auto *block = static_cast<PacketEvent *>(
            a ? a->allocate(kPoolBlockEvents * sizeof(PacketEvent),
                            alignof(PacketEvent))
              : ::operator new(kPoolBlockEvents *
                               sizeof(PacketEvent)));
        const std::uint64_t epoch = a ? a->epoch() : 0;
        for (std::size_t i = 0; i < kPoolBlockEvents; ++i) {
            PacketEvent *pe =
                ::new (static_cast<void *>(block + i)) PacketEvent;
            pe->homeArena = a;
            pe->poolEpoch = epoch;
            pe->nextFree = blk.freeEvents;
            blk.freeEvents = pe;
        }
        if (!a)
            blk.poolBlocks.push_back(block);
    }
    PacketEvent *pe = blk.freeEvents;
    blk.freeEvents = pe->nextFree;
    pe->pkt = pkt;
    pe->at = at;
    return pe;
}

void
Network::releaseEvent(PacketEvent *pe, Block &blk)
{
    // Use-after-reset tripwire: an arena-backed node must never be
    // recycled after its home arena has been reset out from under it
    // (e.g. a pooled event crossing a sweep-replication boundary).
    BLITZ_ASSERT(!pe->homeArena ||
                     pe->homeArena->epoch() == pe->poolEpoch,
                 "packet event outlived its arena (use-after-reset)");
    pe->nextFree = blk.freeEvents;
    blk.freeEvents = pe;
}

std::uint64_t
Network::send(Packet pkt)
{
    BLITZ_ASSERT(pkt.src < topo_.size() && pkt.dst < topo_.size(),
                 "packet endpoints out of range");
    if (sharded_) {
        // Per-source numbering: a pure function of the sending node,
        // so sequence numbers cannot depend on the shard layout. The
        // node-owned counter also keeps the write thread-private —
        // enforced by the locus check below.
        const sim::ShardContext *c = sim::tlsShardContext();
        BLITZ_ASSERT(!c || c->serial ||
                         group_->shardOf(pkt.src) == c->shard,
                     "send() from a shard that does not own the "
                     "source node");
        pkt.seq = (static_cast<std::uint64_t>(pkt.src) + 1) << 40 |
                  ++srcSeq_[pkt.src];
    } else {
        pkt.seq = nextSeq_++;
    }
    pkt.injectTick = eq_.now();
    Block &blk = curBlock();
    ++blk.sent;
    hopNode(acquireEvent(pkt, pkt.src, blk));
    return pkt.seq;
}

void
Network::scheduleDelivery(const Packet &pkt, NodeId at,
                          sim::Tick extraDelay, Block &blk)
{
    // Ejection port: serializes deliveries into the endpoint.
    auto &free = ejectFree_[ejectIndex(at, pkt.plane)];
    sim::Tick depart = std::max(eq_.now() + extraDelay, free);
    free = depart + hopLatency_;
    // Always executes at `at`, so this stays in the current shard.
    eq_.scheduleAtNode(at, depart + hopLatency_,
                       Deliver{this, acquireEvent(pkt, at, blk)},
                       sim::Priority::NocTransfer);
}

void
Network::finishDelivery(PacketEvent *pe)
{
    Block &blk = curBlock();
    ++blk.delivered;
    const sim::Tick lat = eq_.now() - pe->pkt.injectTick;
    ++blk.latCount;
    blk.latSum += lat;
    blk.latMax = std::max(blk.latMax, lat);
    if (!sharded_)
        latency_.add(static_cast<double>(lat));
    if (recorder_)
        recorder_->nocDeliver(eq_.now(), pe->at,
                              static_cast<int>(pe->pkt.plane),
                              static_cast<int>(pe->pkt.type),
                              pe->pkt.seq, pe->pkt.injectTick);
    // Pin the handler installed *now* by raw pointer: the delivery
    // depth keeps setHandler() from destroying it reentrantly (the
    // old handler parks in this block's graveyard until the depth
    // returns to zero), so no shared_ptr copy — and no pair of atomic
    // refcount ops — is paid per packet.
    const Handler *h = handlers_[pe->at].get();
    const Packet pkt = pe->pkt;
    releaseEvent(pe, blk);
    if (h && *h) {
        ++blk.deliveryDepth;
        (*h)(pkt);
        if (--blk.deliveryDepth == 0 && !blk.retired.empty())
            blk.retired.clear();
    }
}

void
Network::deliverCopies(const Packet &pkt, NodeId at,
                       const FaultDecision &fd, Block &blk)
{
    // A duplicated delivery is the original plus one copy, each
    // serialized through the ejection port in schedule order.
    const int copies = fd.duplicate ? 2 : 1;
    for (int k = 0; k < copies; ++k)
        scheduleDelivery(pkt, at, fd.delay, blk);
}

bool
Network::tryFlatten(PacketEvent *pe, sim::Tick now, Block &blk)
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
    ++blk.hops;
    pe->at = pkt.dst;
    eq_.scheduleAtNode(pkt.dst, depart + hopLatency_, Step{this, pe},
                       sim::Priority::NocTransfer);
    return true;
}

void
Network::hopNode(PacketEvent *pe)
{
    const sim::Tick now = eq_.now();
    Packet &pkt = pe->pkt;
    const NodeId at = pe->at;
    Block &blk = curBlock();

    if (at == pkt.dst) {
        FaultDecision fd;
        if (fault_)
            fd = fault_->onDeliver(pkt, at, now);
        if (fd.drop)
            ++blk.dropped;
        else
            deliverCopies(pkt, at, fd, blk);
        releaseEvent(pe, blk);
        return;
    }

    if (tryFlatten(pe, now, blk))
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
    ++blk.hops;
    if (fd.drop) {
        // The flit crossed the link (the slot is consumed) but never
        // arrives at the next router.
        ++blk.dropped;
        releaseEvent(pe, blk);
        return;
    }
    pe->at = next;
    eq_.scheduleAtNode(next, depart + hopLatency_ + fd.delay,
                       Step{this, pe}, sim::Priority::NocTransfer);
    if (fd.duplicate) {
        // Mid-route duplication (not produced by the delivery-stage
        // fault model, but honored for hook generality): forward an
        // independent copy behind the original.
        eq_.scheduleAtNode(next, depart + hopLatency_ + fd.delay,
                           Step{this, acquireEvent(pkt, next, blk)},
                           sim::Priority::NocTransfer);
    }
}

} // namespace blitz::noc
