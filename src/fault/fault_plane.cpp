#include "fault_plane.hpp"

#include <algorithm>

#include "record/recorder.hpp"
#include "trace/health.hpp"
#include "trace/tracer.hpp"

namespace blitz::fault {

FaultPlane::FaultPlane(FaultConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed)
{
    for (const auto &o : cfg_.outages)
        BLITZ_ASSERT(o.from <= o.until, "outage window ends before it starts");
    for (const auto &p : cfg_.partitions)
        BLITZ_ASSERT(p.from <= p.until,
                     "partition window ends before it starts");
    auto checkRates = [](const FaultRates &r) {
        BLITZ_ASSERT(r.drop >= 0.0 && r.drop <= 1.0 &&
                     r.delay >= 0.0 && r.delay <= 1.0 &&
                     r.duplicate >= 0.0 && r.duplicate <= 1.0 &&
                     r.corrupt >= 0.0 && r.corrupt <= 1.0,
                     "fault rates must be probabilities");
        BLITZ_ASSERT(r.delayMin >= 1 && r.delayMax >= r.delayMin,
                     "fault delay range is empty");
    };
    checkRates(cfg_.base);
    for (const auto &[plane, r] : cfg_.planes)
        checkRates(r);
    for (const auto &[node, r] : cfg_.nodes)
        checkRates(r);
    for (const auto &[msg, r] : cfg_.messages)
        checkRates(r);
    for (const auto &[link, r] : cfg_.links)
        checkRates(r);
}

void
FaultPlane::fillHealth(trace::HealthReport &report) const
{
    const FaultStats &fs = stats_;
    report.bumpDet("fault.drops", static_cast<double>(fs.drops));
    report.bumpDet("fault.delays", static_cast<double>(fs.delays));
    report.bumpDet("fault.duplicates", static_cast<double>(fs.duplicates));
    report.bumpDet("fault.corruptions",
                   static_cast<double>(fs.corruptions));
    report.bumpDet("fault.outage_drops",
                   static_cast<double>(fs.outageDrops));
    report.bumpDet("fault.partition_drops",
                   static_cast<double>(fs.partitionDrops));
}

void
FaultPlane::setTrace(trace::Tracer *t)
{
    if (t == tracer_)
        return;
    tracer_ = t;
    if (!tracer_)
        return;
    // The schedule is static configuration: emit the windows as spans
    // up front so the timeline shows them even if the run ends early.
    for (const auto &o : cfg_.outages) {
        tracer_->complete(
            "fault", o.freeze ? "freeze_window" : "crash_window",
            o.node, o.from,
            o.until == sim::maxTick ? o.from : o.until);
    }
    for (const auto &p : cfg_.partitions) {
        tracer_->complete(
            "fault", "partition_window", 0, p.from, p.until,
            {{"links", static_cast<std::int64_t>(p.links.size())}});
    }
}

bool
FaultPlane::nodeDown(noc::NodeId node, sim::Tick now) const
{
    for (const auto &o : cfg_.outages) {
        if (o.node == node && now >= o.from && now < o.until)
            return true;
    }
    return false;
}

void
FaultPlane::armOutageSchedule(sim::EventQueue &eq)
{
    for (const auto &o : cfg_.outages) {
        auto down = o.freeze ? &onNodeFrozen : &onNodeDown;
        auto up = o.freeze ? &onNodeThawed : &onNodeUp;
        eq.schedule(o.from, [this, node = o.node, down] {
            if (*down)
                (*down)(node);
        });
        if (o.until < sim::maxTick) {
            eq.schedule(o.until, [this, node = o.node, up] {
                if (*up)
                    (*up)(node);
            });
        }
    }
}

bool
FaultPlane::coinMessage(const noc::Packet &pkt) const
{
    switch (pkt.type) {
      case noc::MsgType::CoinStatus:
      case noc::MsgType::CoinUpdate:
      case noc::MsgType::CoinRequest:
      case noc::MsgType::CoinRecover:
        return true;
      default:
        return false;
    }
}

bool
FaultPlane::linkCut(noc::NodeId a, noc::NodeId b, sim::Tick now) const
{
    for (const auto &p : cfg_.partitions) {
        if (now < p.from || now >= p.until)
            continue;
        for (const auto &[x, y] : p.links) {
            if ((x == a && y == b) || (x == b && y == a))
                return true;
        }
    }
    return false;
}

const FaultRates &
FaultPlane::ratesFor(const noc::Packet &pkt, noc::NodeId from,
                     noc::NodeId to) const
{
    if (auto it = cfg_.links.find({from, to}); it != cfg_.links.end())
        return it->second;
    if (auto it = cfg_.nodes.find(pkt.src); it != cfg_.nodes.end())
        return it->second;
    if (auto it = cfg_.nodes.find(pkt.dst); it != cfg_.nodes.end())
        return it->second;
    if (auto it = cfg_.messages.find(static_cast<int>(pkt.type));
        it != cfg_.messages.end())
        return it->second;
    if (auto it = cfg_.planes.find(static_cast<int>(pkt.plane));
        it != cfg_.planes.end())
        return it->second;
    return cfg_.base;
}

noc::FaultDecision
FaultPlane::applyRates(noc::Packet &pkt, const FaultRates &r,
                       bool deliveryStage, sim::Tick now)
{
    noc::FaultDecision fd;
    if (r.quiet() || (cfg_.coinTrafficOnly && !coinMessage(pkt)))
        return fd;
    if (r.drop > 0.0 && rng_.chance(r.drop)) {
        ++stats_.drops;
        fd.drop = true;
        if (tracer_)
            tracer_->instant("fault", "inject_drop", pkt.dst, now,
                             {{"src",
                               static_cast<std::int64_t>(pkt.src)}});
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultDrop,
                             record::kSiteInject,
                             static_cast<int>(pkt.type), pkt.src,
                             pkt.dst, static_cast<std::int64_t>(pkt.seq));
        return fd;
    }
    if (r.delay > 0.0 && rng_.chance(r.delay)) {
        ++stats_.delays;
        fd.delay = rng_.range(static_cast<std::int64_t>(r.delayMin),
                              static_cast<std::int64_t>(r.delayMax));
        if (tracer_)
            tracer_->instant(
                "fault", "inject_delay", pkt.dst, now,
                {{"ticks", static_cast<std::int64_t>(fd.delay)}});
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultDelay,
                             record::kSiteInject,
                             static_cast<int>(pkt.type), pkt.src,
                             pkt.dst, static_cast<std::int64_t>(pkt.seq),
                             static_cast<std::int64_t>(fd.delay));
    }
    // Duplication is a delivery-stage artifact (endpoint retransmit);
    // duplicating mid-route would multiply copies at every hop.
    if (deliveryStage && r.duplicate > 0.0 &&
        rng_.chance(r.duplicate)) {
        ++stats_.duplicates;
        fd.duplicate = true;
        if (tracer_)
            tracer_->instant("fault", "inject_duplicate", pkt.dst, now);
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultDuplicate,
                             record::kSiteInject,
                             static_cast<int>(pkt.type), pkt.src,
                             pkt.dst, static_cast<std::int64_t>(pkt.seq));
    }
    if (r.corrupt > 0.0 && rng_.chance(r.corrupt)) {
        ++stats_.corruptions;
        const auto word = static_cast<std::size_t>(rng_.below(4));
        const auto bit = static_cast<int>(rng_.below(63));
        pkt.payload[word] ^= std::int64_t{1} << bit;
        pkt.corrupted = true; // the link CRC catches the damage
        if (tracer_)
            tracer_->instant("fault", "inject_corrupt", pkt.dst, now);
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultCorrupt,
                             record::kSiteInject,
                             static_cast<int>(pkt.type), pkt.src,
                             pkt.dst, static_cast<std::int64_t>(pkt.seq),
                             static_cast<std::int64_t>(
                                 word * 64 + static_cast<std::size_t>(bit)));
    }
    return fd;
}

noc::FaultDecision
FaultPlane::onLink(noc::Packet &pkt, noc::NodeId from, noc::NodeId to,
                   sim::Tick now)
{
    if (nodeDown(pkt.src, now) || nodeDown(pkt.dst, now)) {
        ++stats_.outageDrops;
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultDrop,
                             record::kSiteOutage,
                             static_cast<int>(pkt.type), pkt.src,
                             pkt.dst, static_cast<std::int64_t>(pkt.seq));
        return {.drop = true};
    }
    if (linkCut(from, to, now)) {
        ++stats_.partitionDrops;
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultDrop,
                             record::kSitePartition,
                             static_cast<int>(pkt.type), from, to,
                             static_cast<std::int64_t>(pkt.seq));
        return {.drop = true};
    }
    if (cfg_.endpointOnly)
        return {};
    return applyRates(pkt, ratesFor(pkt, from, to), false, now);
}

bool
FaultPlane::inert(const noc::Packet &pkt, sim::Tick from,
                  sim::Tick until) const
{
    // Any outage or partition window overlapping the span could drop
    // the packet (and bump a counter) at some hop — step those hops.
    for (const auto &o : cfg_.outages) {
        if (o.from <= until && o.until > from)
            return false;
    }
    for (const auto &p : cfg_.partitions) {
        if (p.from <= until && p.until > from)
            return false;
    }
    // Rate-based faults: applyRates returns without touching the RNG
    // or the statistics when the matched rates are all zero (or the
    // packet is exempt), so eliding the consultation is exact.
    if (cfg_.endpointOnly)
        return true;
    if (cfg_.coinTrafficOnly && !coinMessage(pkt))
        return true;
    if (!cfg_.links.empty())
        return false; // per-link rates vary along the route
    // With no per-link scope the matched rates are route-independent.
    return ratesFor(pkt, pkt.src, pkt.src).quiet();
}

noc::FaultDecision
FaultPlane::onDeliver(noc::Packet &pkt, noc::NodeId at, sim::Tick now)
{
    if (nodeDown(pkt.src, now) || nodeDown(at, now)) {
        ++stats_.outageDrops;
        if (recorder_)
            recorder_->fault(now, record::RecordKind::FaultDrop,
                             record::kSiteOutage,
                             static_cast<int>(pkt.type), pkt.src, at,
                             static_cast<std::int64_t>(pkt.seq));
        return {.drop = true};
    }
    return applyRates(pkt, ratesFor(pkt, at, at), true, now);
}

PartitionWindow
columnPartition(const noc::Topology &topo, int cutX, sim::Tick from,
                sim::Tick until)
{
    BLITZ_ASSERT(cutX >= 0 && cutX + 1 < topo.width(),
                 "column cut outside the mesh");
    PartitionWindow p;
    p.from = from;
    p.until = until;
    for (int y = 0; y < topo.height(); ++y) {
        noc::NodeId a = topo.idOf({cutX, y});
        noc::NodeId b = topo.idOf({cutX + 1, y});
        p.links.emplace_back(a, b);
    }
    return p;
}

} // namespace blitz::fault
