/**
 * @file
 * Cross-plane accounting reconciliation: the health report's NoC keys
 * (what every bench's --health output carries), the network's own
 * counters, the fault plane's per-cause statistics, and the flight
 * recorder's journal must all agree packet for packet under mesh
 * partitions, outages, and rate faults. Every discarded packet has
 * exactly one cause, and every observer counts it exactly once — a
 * drift between the planes would mean some observer is
 * double-counting or blind.
 */

#include <cstdint>
#include <memory>
#include <string_view>

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "record/recorder.hpp"
#include "trace/health.hpp"

namespace {

using namespace blitz;

/** A bench_chaos-shaped trial with every observer plane attached. */
struct ObservedTrial
{
    std::unique_ptr<fault::ChaosCluster> cluster;
    record::FlightRecorder rec;

    ObservedTrial(int d, const fault::FaultConfig &fc,
                  std::uint64_t seed)
    {
        fault::ChaosConfig cc;
        cc.width = d;
        cc.height = d;
        cc.seedBase = seed;
        cc.fault = fc;
        cc.fault.seed = seed;
        cc.auditPeriod = 4'096;
        cluster = std::make_unique<fault::ChaosCluster>(cc);
        cluster->attachRecorder(&rec);

        const auto n = static_cast<std::size_t>(d * d);
        for (std::size_t i = 0; i < n; ++i)
            cluster->setMax(i, 16);
        for (std::size_t i = 0; i < n / 4; ++i)
            cluster->setHas(i, 32);
        cluster->sealProvision();
        cluster->startAll();
    }

    /** Recorded events of @p kind (optionally at one fault site). */
    std::uint64_t
    recorded(record::RecordKind kind, int site = -1) const
    {
        std::uint64_t count = 0;
        for (std::size_t i = 0; i < rec.size(); ++i) {
            const record::Record &r = rec.at(i);
            if (r.kind != kind)
                continue;
            if (site >= 0 && r.flag != static_cast<std::uint8_t>(site))
                continue;
            ++count;
        }
        return count;
    }

    /** A deterministic key of the cluster's health report. */
    double
    health(std::string_view key) const
    {
        trace::HealthReport report;
        cluster->fillHealth(report);
        const double *v = report.findDet(key);
        EXPECT_NE(v, nullptr) << "no health key " << key;
        return v ? *v : -1.0;
    }
};

TEST(NocTracePartition, PartitionOnlyDropsReconcileExactly)
{
    // No rate faults, no outages: every discard is a severed-link
    // discard, so all four planes must report the same number.
    fault::FaultConfig fc;
    noc::Topology topo(4, 4, false);
    fc.partitions.push_back(
        fault::columnPartition(topo, /*cutX=*/1, 1'000, 20'000));

    ObservedTrial t(4, fc, /*seed=*/7);
    t.cluster->eq().runUntil(30'000);

    const auto &stats = t.cluster->plane().stats();
    EXPECT_EQ(stats.drops, 0u);
    EXPECT_EQ(stats.outageDrops, 0u);
    EXPECT_GT(stats.partitionDrops, 0u)
        << "the partition window never cut live traffic";
    EXPECT_EQ(t.cluster->net().packetsDropped(), stats.partitionDrops);
    EXPECT_EQ(t.recorded(record::RecordKind::FaultDrop,
                         record::kSitePartition),
              stats.partitionDrops);

    // The health report the benches emit carries the same counts.
    EXPECT_EQ(t.health("noc.dropped"),
              static_cast<double>(stats.partitionDrops));
    EXPECT_EQ(t.health("noc.delivered"),
              static_cast<double>(t.cluster->net().packetsDelivered()));
}

TEST(NocTracePartition, MixedFaultsReconcileAcrossAllPlanes)
{
    // Partition + crash windows + rate drops/delays/duplicates all at
    // once: the per-cause fault statistics must sum to the network's
    // drop counter, and the recorder must journal each cause at its
    // site exactly as often as the plane counted it.
    fault::FaultConfig fc;
    fc.coinTrafficOnly = true;
    fc.base.drop = 0.05;
    fc.base.delay = 0.05;
    fc.base.duplicate = 0.02;
    noc::Topology topo(4, 4, false);
    fc.partitions.push_back(
        fault::columnPartition(topo, /*cutX=*/1, 2'000, 12'000));
    fc.outages.push_back({/*node=*/5, 3'000, 12'000, /*freeze=*/false});

    ObservedTrial t(4, fc, /*seed=*/11);
    t.cluster->eq().runUntil(40'000);

    const auto &stats = t.cluster->plane().stats();
    EXPECT_GT(stats.drops, 0u);
    EXPECT_GT(stats.partitionDrops, 0u);
    EXPECT_GT(stats.outageDrops, 0u);
    EXPECT_GT(stats.delays, 0u);

    const std::uint64_t totalDrops =
        stats.drops + stats.outageDrops + stats.partitionDrops;
    EXPECT_EQ(t.cluster->net().packetsDropped(), totalDrops);

    // Per-cause journal counts match the plane's own statistics.
    using record::RecordKind;
    EXPECT_EQ(t.recorded(RecordKind::FaultDrop, record::kSiteInject),
              stats.drops);
    EXPECT_EQ(t.recorded(RecordKind::FaultDrop, record::kSiteOutage),
              stats.outageDrops);
    EXPECT_EQ(t.recorded(RecordKind::FaultDrop, record::kSitePartition),
              stats.partitionDrops);
    EXPECT_EQ(t.recorded(RecordKind::FaultDelay), stats.delays);
    EXPECT_EQ(t.recorded(RecordKind::FaultDuplicate),
              stats.duplicates);
    EXPECT_EQ(t.recorded(RecordKind::NocDeliver),
              t.cluster->net().packetsDelivered());

    // The health report saw the same world: drops, deliveries and
    // hops match the network and the per-cause fault statistics.
    EXPECT_EQ(t.health("noc.dropped"), static_cast<double>(totalDrops));
    EXPECT_EQ(t.health("noc.delivered"),
              static_cast<double>(t.recorded(RecordKind::NocDeliver)));
    EXPECT_EQ(t.health("noc.hops"),
              static_cast<double>(t.cluster->net().totalHops()));
}

} // namespace
