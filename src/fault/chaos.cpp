#include "chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "coin/neighborhood.hpp"
#include "record/recorder.hpp"
#include "sim/digest.hpp"
#include "sim/logging.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/prof.hpp"
#include "trace/tracer.hpp"

namespace blitz::fault {

ChaosCluster::ChaosCluster(const ChaosConfig &cfg)
    : cfg_(cfg), eq_(cfg.arena), topo_(cfg.width, cfg.height, cfg.wrap),
      net_(eq_, topo_, 1, cfg.arena), plane_(cfg.fault), audit_(0),
      maxAtCrash_(topo_.size(), 0)
{
    if (cfg_.shards >= 1) {
        // Bind the shard group before anything schedules: the anchor
        // must be empty, and the network/fault plane must flip to
        // their partition-independent state layouts before the first
        // packet. Column bands: more shards than columns would own no
        // node.
        const auto width = static_cast<std::uint32_t>(cfg.width);
        const std::uint32_t shards = std::min(cfg_.shards, width);
        group_ = std::make_unique<sim::ShardGroup>(
            eq_, shards,
            sim::columnBands(width,
                             static_cast<std::uint32_t>(cfg.height),
                             shards));
        net_.enableSharding(*group_);
        plane_.enableKeyedStreams(shards);
    }
    plane_.attach(net_);
    std::vector<bool> managed(topo_.size(), true);
    auto hoods = coin::managedNeighborhoods(topo_, managed);
    for (noc::NodeId id = 0; id < topo_.size(); ++id) {
        units_.push_back(std::make_unique<blitzcoin::BlitzCoinUnit>(
            eq_, net_, id, cfg_.unit, hoods[id], cfg_.seedBase + id));
        net_.setHandler(id, [this, id](const noc::Packet &pkt) {
            units_[id]->handlePacket(pkt);
        });
        audit_.track(*units_.back());
    }
    if (!cfg_.byzantine.specs.empty()) {
        byzantine_ = std::make_unique<ByzantinePlan>(cfg_.byzantine);
        for (auto &u : units_)
            byzantine_->corrupt(*u);
        byzantine_->arm(eq_, net_);
    }
    if (cfg_.guardianEnabled) {
        BLITZ_ASSERT(cfg_.auditPeriod > 0,
                     "guardian sweeps ride the audit cadence; set "
                     "auditPeriod > 0 when guardianEnabled");
        guardian_ = std::make_unique<blitzcoin::IntegrityGuardian>(
            cfg_.guardian);
        for (auto &u : units_)
            guardian_->track(*u);
        guardian_->setClock([this] { return eq_.now(); });
        audit_.setGuardian(guardian_.get());
    }
    plane_.onNodeDown = [this](noc::NodeId n) { onCrash(n); };
    plane_.onNodeUp = [this](noc::NodeId n) { onRestart(n); };
    // A freeze is a clock-gated stall: the unit keeps its registers but
    // stops initiating; the fault plane already blackholes its traffic.
    plane_.onNodeFrozen = [this](noc::NodeId n) { units_[n]->stop(); };
    plane_.onNodeThawed = [this](noc::NodeId n) { units_[n]->start(); };
    if (!cfg_.fault.outages.empty())
        plane_.armOutageSchedule(eq_);
    if (cfg_.auditPeriod > 0)
        scheduleAudit();
}

void
ChaosCluster::scheduleAudit()
{
    eq_.scheduleIn(cfg_.auditPeriod, [this] {
        // Guardian first: a quarantine decided this sweep must be
        // visible to the census on the same tick, so the fenced coins
        // drop out of the count and the same reconcile remints them.
        // Both run in the serial lane (exclusive context) in sharded
        // mode, so the cross-unit writes are race-free.
        if (guardian_)
            guardian_->sweep();
        audit_.reconcile();
        scheduleAudit();
    }, sim::Priority::Stats);
}

void
ChaosCluster::attachMetrics(trace::Registry *reg, sim::Tick interval)
{
    metrics_ = reg;
    sampleEvery_ = interval;
    if (!reg)
        return;
    BLITZ_ASSERT(interval >= 1, "metrics sample interval is empty");
    reg->sampled("coin.total", [this] {
        return static_cast<double>(totalCoins());
    });
    reg->sampled("coin.error", [this] { return clusterError(); });
    for (std::size_t i = 0; i < units_.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "coin.has.%zu", i);
        reg->sampled(name, [this, i] {
            const auto &u = *units_[i];
            return u.crashed() ? 0.0 : static_cast<double>(u.has());
        });
    }
    auto sumOf = [this, reg](const char *name, auto get) {
        reg->sampled(name, [this, get] {
            std::uint64_t s = 0;
            for (const auto &u : units_)
                s += get(*u);
            return static_cast<double>(s);
        });
    };
    sumOf("coin.exchanges_initiated", [](const auto &u) {
        return u.exchangesInitiated();
    });
    sumOf("coin.exchanges_moved", [](const auto &u) {
        return u.exchangesMoved();
    });
    sumOf("coin.exchanges_timed_out", [](const auto &u) {
        return u.exchangesTimedOut();
    });
    sumOf("coin.recoveries_sent", [](const auto &u) {
        return u.recoveriesSent();
    });
    sumOf("coin.updates_recovered", [](const auto &u) {
        return u.updatesRecovered();
    });
    sumOf("coin.duplicates_ignored", [](const auto &u) {
        return u.duplicatesIgnored();
    });
    sumOf("coin.corrupted_dropped", [](const auto &u) {
        return u.corruptedDropped();
    });
    sumOf("coin.exchanges_abandoned", [](const auto &u) {
        return u.exchangesAbandoned();
    });
    if (guardian_) {
        reg->sampled("guardian.detections", [this] {
            return static_cast<double>(guardian_->detections());
        });
        reg->sampled("guardian.warnings", [this] {
            return static_cast<double>(guardian_->warnings());
        });
        reg->sampled("guardian.throttles", [this] {
            return static_cast<double>(guardian_->throttles());
        });
        reg->sampled("guardian.quarantines", [this] {
            return static_cast<double>(guardian_->quarantines());
        });
    }
    if (byzantine_) {
        reg->sampled("byzantine.counterfeited", [this] {
            return static_cast<double>(byzantine_->stats().counterfeited);
        });
        reg->sampled("byzantine.stale_replays", [this] {
            return static_cast<double>(byzantine_->stats().staleReplays);
        });
    }
    reg->sampled("audit.gaps_closed", [this] {
        return static_cast<double>(audit_.gapsClosed());
    });
    reg->sampled("audit.minted", [this] {
        return static_cast<double>(audit_.coinsMinted());
    });
    reg->sampled("audit.burned", [this] {
        return static_cast<double>(audit_.coinsBurned());
    });
    reg->sampled("noc.packets_sent", [this] {
        return static_cast<double>(net_.packetsSent());
    });
    reg->sampled("noc.packets_delivered", [this] {
        return static_cast<double>(net_.packetsDelivered());
    });
    reg->sampled("noc.packets_dropped", [this] {
        return static_cast<double>(net_.packetsDropped());
    });
    reg->sampled("noc.total_hops", [this] {
        return static_cast<double>(net_.totalHops());
    });
    reg->sampled("fault.drops", [this] {
        return static_cast<double>(plane_.stats().drops);
    });
    reg->sampled("fault.delays", [this] {
        return static_cast<double>(plane_.stats().delays);
    });
    reg->sampled("fault.duplicates", [this] {
        return static_cast<double>(plane_.stats().duplicates);
    });
    reg->sampled("fault.corruptions", [this] {
        return static_cast<double>(plane_.stats().corruptions);
    });
    reg->sampled("fault.outage_drops", [this] {
        return static_cast<double>(plane_.stats().outageDrops);
    });
    reg->sampled("fault.partition_drops", [this] {
        return static_cast<double>(plane_.stats().partitionDrops);
    });
    reg->sampled("sim.events_scheduled", [this] {
        return static_cast<double>(eq_.totalScheduled());
    });
    reg->sampled("sim.events_executed", [this] {
        return static_cast<double>(eq_.totalExecuted());
    });
    scheduleSample();
}

void
ChaosCluster::scheduleSample()
{
    eq_.scheduleIn(sampleEvery_, [this] {
        metrics_->sample(eq_.now());
        scheduleSample();
    }, sim::Priority::Stats);
}

void
ChaosCluster::attachTrace(trace::Tracer *t)
{
    tracer_ = t;
    rewire();
}

void
ChaosCluster::attachRecorder(record::FlightRecorder *rec,
                             sim::Tick snapshotEvery)
{
    recorder_ = rec;
    rewire();
    audit_.setClock([this] { return eq_.now(); });
    snapshotEvery_ = snapshotEvery;
    if (recorder_ && snapshotEvery_ > 0) {
        BLITZ_ASSERT(snapshotEvery_ >= 1, "snapshot cadence is empty");
        scheduleSnapshot();
    }
}

void
ChaosCluster::rewire()
{
    // Sharded deliveries append from parallel phases; flip the
    // recorder's mutex on before the first concurrent append.
    if (recorder_ && group_)
        recorder_->setConcurrent(true);
    net_.setRecorder(recorder_);
    plane_.setTrace(tracer_);
    plane_.setRecorder(recorder_);
    for (auto &u : units_) {
        u->setTrace(tracer_);
        u->setRecorder(recorder_);
    }
    audit_.setRecorder(recorder_);
    if (byzantine_) {
        byzantine_->setTrace(tracer_);
        byzantine_->setRecorder(recorder_);
    }
    if (guardian_) {
        guardian_->setTrace(tracer_);
        guardian_->setRecorder(recorder_);
    }
}

void
ChaosCluster::scheduleSnapshot()
{
    eq_.scheduleIn(snapshotEvery_, [this] {
        const sim::Tick now = eq_.now();
        sim::Fnv1a digest;
        for (std::size_t i = 0; i < units_.size(); ++i) {
            const auto &u = *units_[i];
            const coin::Coins has = u.crashed() ? 0 : u.has();
            recorder_->snapshot(now, static_cast<std::int64_t>(i),
                                static_cast<std::int64_t>(has),
                                snapshotEpoch_);
            digest.i64(static_cast<std::int64_t>(has));
        }
        recorder_->snapshotMark(
            now, snapshotEpoch_,
            static_cast<std::int64_t>(units_.size()), digest.value());
        ++snapshotEpoch_;
        scheduleSnapshot();
    }, sim::Priority::Stats);
}

void
ChaosCluster::onCrash(noc::NodeId node)
{
    maxAtCrash_[node] = units_[node]->max();
    units_[node]->crash();
}

void
ChaosCluster::onRestart(noc::NodeId node)
{
    units_[node]->restart();
    if (cfg_.restoreMaxOnRestart && maxAtCrash_[node] > 0)
        units_[node]->setMax(maxAtCrash_[node]);
    units_[node]->start();
}

void
ChaosCluster::setHas(std::size_t i, coin::Coins has)
{
    // Provisioning is legitimate: teach the guardian's shadow books
    // about the delta or it would read as counterfeit.
    if (guardian_)
        guardian_->noteGrant(static_cast<noc::NodeId>(i),
                             has - units_[i]->has());
    units_[i]->setHas(has);
    // Provisioning is a mint: journal it so a replayed log opens with
    // the same coin population (attachRecorder comes before seeding).
    if (has > 0 && recorder_)
        recorder_->mint(eq_.now(), static_cast<std::int64_t>(i), has);
}

void
ChaosCluster::setMax(std::size_t i, coin::Coins max)
{
    // setMax on a running unit fires an immediate exchange timer;
    // scope it to the unit's locus like startAll().
    sim::LocusScope scope(eq_, static_cast<noc::NodeId>(i));
    units_[i]->setMax(max);
}

void
ChaosCluster::sealProvision()
{
    audit_.setExpected(totalCoins());
}

void
ChaosCluster::startAll()
{
    // LocusScope pins each unit's initial timer to its own node's
    // ordering locus (and shard leaf), so the schedule is a pure
    // function of the node — identical for every shard count — and a
    // no-op in legacy mode.
    for (noc::NodeId id = 0; id < units_.size(); ++id) {
        sim::LocusScope scope(eq_, id);
        units_[id]->start();
    }
}

coin::Coins
ChaosCluster::totalCoins() const
{
    coin::Coins sum = 0;
    for (const auto &u : units_) {
        if (!u->crashed() && !u->quarantined())
            sum += u->has();
    }
    return sum;
}

double
ChaosCluster::clusterError() const
{
    coin::Coins th = 0, tm = 0;
    std::size_t alive = 0;
    for (const auto &u : units_) {
        if (u->crashed() || u->quarantined())
            continue;
        th += u->has();
        tm += u->max();
        ++alive;
    }
    if (tm == 0 || alive == 0)
        return 0.0;
    const double alpha =
        static_cast<double>(th) / static_cast<double>(tm);
    double sum = 0.0;
    for (const auto &u : units_) {
        if (u->crashed() || u->quarantined())
            continue;
        sum += std::abs(static_cast<double>(u->has()) -
                        alpha * static_cast<double>(u->max()));
    }
    return sum / static_cast<double>(alive);
}

std::optional<sim::Tick>
ChaosCluster::runUntilConverged(double tol, sim::Tick checkEvery,
                                sim::Tick deadline)
{
    BLITZ_ASSERT(checkEvery >= 1, "convergence check period is empty");
    while (eq_.now() < deadline) {
        eq_.runUntil(std::min(eq_.now() + checkEvery, deadline));
        if (clusterError() <= tol)
            return eq_.now();
    }
    return std::nullopt;
}

void
ChaosCluster::fillHealth(trace::HealthReport &report) const
{
    // Everything here is deterministic in (config, seed): outcome
    // counters, not timings. blitz-top diff treats any drift in these
    // keys as a finding.
    const blitzcoin::AuditReport snap = audit_.audit();
    report.bumpDet("coin.total", static_cast<double>(snap.counted));
    report.bumpDet("coin.expected",
                   static_cast<double>(snap.expected));
    report.bumpDet("coin.gap", static_cast<double>(snap.gap));
    report.bumpDet("audit.gaps_closed",
                   static_cast<double>(audit_.gapsClosed()));
    report.bumpDet("audit.minted",
                   static_cast<double>(audit_.coinsMinted()));
    report.bumpDet("audit.burned",
                   static_cast<double>(audit_.coinsBurned()));

    std::uint64_t initiated = 0;
    std::uint64_t moved = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t shunned = 0;
    std::uint64_t throttledDrops = 0;
    std::uint64_t crashed = 0;
    std::uint64_t quarantined = 0;
    for (const auto &u : units_) {
        initiated += u->exchangesInitiated();
        moved += u->exchangesMoved();
        timedOut += u->exchangesTimedOut();
        recoveries += u->recoveriesSent();
        shunned += u->shunnedDrops();
        throttledDrops += u->throttledDrops();
        crashed += u->crashed() ? 1 : 0;
        quarantined += u->quarantined() ? 1 : 0;
    }
    report.bumpDet("units", static_cast<double>(units_.size()));
    report.bumpDet("units.crashed", static_cast<double>(crashed));
    report.bumpDet("units.quarantined",
                   static_cast<double>(quarantined));
    report.bumpDet("exchanges.initiated",
                   static_cast<double>(initiated));
    report.bumpDet("exchanges.moved", static_cast<double>(moved));
    report.bumpDet("exchanges.timed_out",
                   static_cast<double>(timedOut));
    report.bumpDet("exchanges.recoveries",
                   static_cast<double>(recoveries));
    report.bumpDet("exchanges.shunned_drops",
                   static_cast<double>(shunned));
    report.bumpDet("exchanges.throttled_drops",
                   static_cast<double>(throttledDrops));

    if (guardian_) {
        report.bumpDet("guardian.sweeps",
                       static_cast<double>(guardian_->sweepsRun()));
        report.bumpDet("guardian.detections",
                       static_cast<double>(guardian_->detections()));
        report.bumpDet("guardian.warnings",
                       static_cast<double>(guardian_->warnings()));
        report.bumpDet("guardian.throttles",
                       static_cast<double>(guardian_->throttles()));
        report.bumpDet("guardian.quarantines",
                       static_cast<double>(guardian_->quarantines()));
    }

    plane_.fillHealth(report);
    net_.fillHealth(report);
    trace::fillQueueHealth(report, eq_);
    if (group_)
        trace::fillShardHealth(report, *group_);
    if (cfg_.arena)
        trace::fillArenaHealth(report, *cfg_.arena);
}

blitzcoin::AuditReport
ChaosCluster::quiesce(sim::Tick drainTicks)
{
    eq_.runUntil(eq_.now() + drainTicks);
    blitzcoin::AuditReport before = audit_.reconcile();
    // Conservation invariant: whatever the faults destroyed, one
    // watchdog sweep over a quiesced cluster restores the provisioned
    // total exactly.
    blitzcoin::AuditReport after = audit_.audit();
    BLITZ_ASSERT(after.gap == 0,
                 "audit failed to restore the provisioned coin total");
    return before;
}

} // namespace blitz::fault
