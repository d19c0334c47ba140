/**
 * @file
 * BSP shard-group tests: the partition-independent ordering key, the
 * superstep/mailbox machinery, the serial observer lane, and the
 * bit-identity of sharded chaos runs across shard counts. The tsan
 * preset runs this suite (plus the sharded golden pins) with real
 * worker threads, so every assertion here doubles as a race probe.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "record/recorder.hpp"
#include "sim/digest.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/shard.hpp"
#include "timer_diff.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace blitz;

TEST(ColumnBands, PartitionsContiguouslyAndClamps)
{
    // 4 columns, 2 shards: the left half is shard 0, the right shard 1.
    const auto m = sim::columnBands(4, 2, 2);
    ASSERT_EQ(m.size(), 8u);
    for (std::uint32_t y = 0; y < 2; ++y) {
        EXPECT_EQ(m[y * 4 + 0], 0u);
        EXPECT_EQ(m[y * 4 + 1], 0u);
        EXPECT_EQ(m[y * 4 + 2], 1u);
        EXPECT_EQ(m[y * 4 + 3], 1u);
    }
    // More shards than columns: clamped, never an empty left band.
    const auto n = sim::columnBands(2, 1, 8);
    EXPECT_EQ(n[0], 0u);
    EXPECT_EQ(n[1], 1u);
    // Bands are monotone in x.
    const auto w = sim::columnBands(7, 1, 3);
    for (std::size_t x = 1; x < 7; ++x)
        EXPECT_LE(w[x - 1], w[x]);
}

/**
 * Execution order log of one run of the cross-shard FIFO scenario: a
 * 1x4 mesh where nodes 0 and 2 both target node 3 with same-tick
 * events. Only node-3 events write the log, so the log has a single
 * writing shard and the observation itself cannot race.
 */
std::vector<int>
crossShardOrder(std::uint32_t shards)
{
    sim::EventQueue eq;
    sim::ShardGroup group(eq, shards, sim::columnBands(4, 1, shards));
    std::vector<int> log;
    std::vector<int> *lp = &log; // raw pointer: cross-shard callbacks
                                 // must be trivially copyable

    // Node 2 fires first in setup order; its same-tick events to node
    // 3 must still sort AFTER node 0's (origin locus 0 < 2) — the
    // regression a global nextSeq_ ordering gets wrong, since
    // per-shard insertion order depends on the partition.
    eq.scheduleAtNode(2, 10, [&eq, lp] {
        eq.scheduleAtNode(3, 11, [lp] { lp->push_back(20); });
        eq.scheduleAtNode(3, 11, [lp] { lp->push_back(21); });
    });
    eq.scheduleAtNode(0, 10, [&eq, lp] {
        eq.scheduleAtNode(3, 11, [lp] { lp->push_back(0); });
        eq.scheduleAtNode(3, 11, [lp] { lp->push_back(1); });
    });

    eq.runUntil(64);
    return log;
}

TEST(ShardOrdering, CrossShardSameTickFifoIsPartitionIndependent)
{
    // (prio, origin locus, per-locus counter): node 0's two events
    // precede node 2's, each pair in send order, at EVERY shard count
    // — including 2, where node 0 reaches node 3 through a mailbox
    // while node 2 inserts directly.
    const std::vector<int> want{0, 1, 20, 21};
    EXPECT_EQ(crossShardOrder(1), want);
    EXPECT_EQ(crossShardOrder(2), want);
    EXPECT_EQ(crossShardOrder(4), want);
}

TEST(ShardOrdering, SerialLaneRunsAfterSameTickShardPhases)
{
    sim::EventQueue eq;
    sim::ShardGroup group(eq, 2, sim::columnBands(4, 1, 2));
    // Both node events live in shard 0's band (nodes 0 and 1), so the
    // plain vector has one writing thread per phase; the serial event
    // runs strictly after the parallel phase by the superstep contract.
    std::vector<int> order;
    eq.scheduleAtNode(0, 10, [&order] { order.push_back(1); });
    eq.scheduleAtNode(1, 10, [&order] { order.push_back(2); });
    // No locus scope: lands in the serial (global observer) lane.
    eq.schedule(10, [&order] { order.push_back(99); });
    eq.runUntil(64);
    ASSERT_EQ(order.size(), 3u);
    // The serial event is last; the node events sort by locus.
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 99);
}

TEST(ShardGroup, CountsEpochsAndCrossEvents)
{
    sim::EventQueue eq;
    sim::ShardGroup group(eq, 2, sim::columnBands(4, 1, 2));
    int fired = 0;
    sim::LocusScope at0(eq, 0);
    eq.scheduleAtNode(0, 5, [&eq, &fired] {
        ++fired;
        // Crosses the 0|1 boundary: shard 0 -> shard 1 mailbox.
        eq.scheduleAtNode(3, 6, [&fired] { ++fired; });
    });
    eq.runUntil(64);
    EXPECT_EQ(fired, 2);
    EXPECT_GE(group.epochs(), 2u);
    EXPECT_EQ(group.crossEvents(), 1u);
    EXPECT_EQ(eq.totalExecuted(), 2u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 64u);
}

/**
 * Per-node logs of the timer differential workload
 * (tests/timer_diff.hpp) on a 4x2 mesh at @p shards. Every arm from
 * outside a run goes through LocusScope, so each timer lives in its
 * node's leaf and node callbacks re-arm it within that leaf only.
 */
template <class Timers>
std::vector<blitz::testing::TimerLog>
shardedTimerLogs(std::uint32_t shards, std::uint64_t seed)
{
    constexpr std::uint32_t kNodes = 8;
    sim::EventQueue eq;
    sim::ShardGroup group(eq, shards, sim::columnBands(4, 2, shards));
    blitz::testing::TimerDrive<Timers> drive(eq, kNodes, seed, 1500);
    sim::Rng outer(seed);
    for (int round = 0; round < 60; ++round) {
        for (int p = 0; p < 6; ++p) {
            const auto n = static_cast<std::uint32_t>(outer.below(kNodes));
            sim::LocusScope scope(eq, n);
            drive.poke(n);
        }
        eq.runUntil(eq.now() + (round % 2 == 0 ? 1 + outer.below(64)
                                               : 100 + outer.below(30000)));
        if constexpr (std::is_same_v<Timers, blitz::testing::RealTimers>) {
            EXPECT_EQ(eq.totalScheduled() - eq.totalExecuted(),
                      drive.timers().removed() + eq.pending());
        }
    }
    eq.runUntil(eq.now() + 100'000);
    std::vector<blitz::testing::TimerLog> logs;
    for (std::uint32_t n = 0; n < kNodes; ++n)
        logs.push_back(drive.log(n));
    return logs;
}

TEST(ShardedTimer, MatchesTheStampGuardedScheduleIdiomAtShards124)
{
    for (std::uint64_t seed : {5u, 7919u}) {
        const auto want =
            shardedTimerLogs<blitz::testing::StampedTimers>(1, seed);
        std::size_t fires = 0;
        for (const auto &log : want)
            for (const auto &e : log)
                fires += e.second < 0;
        EXPECT_GT(fires, 2000u) << "seed " << seed;
        for (std::uint32_t shards : {1u, 2u, 4u}) {
            EXPECT_EQ(shardedTimerLogs<blitz::testing::RealTimers>(shards,
                                                                    seed),
                      want)
                << "seed " << seed << " shards " << shards;
            EXPECT_EQ(shardedTimerLogs<blitz::testing::StampedTimers>(
                          shards, seed),
                      want)
                << "seed " << seed << " shards " << shards;
        }
    }
}

TEST(ShardedTimerDeathTest, ReArmOutOfTheParkedSerialLanePanics)
{
    // A timer armed with no locus lives in the serial lane, which is
    // parked for the whole parallel phase: a shard thread must not
    // move it. Node 1's event runs on shard 1's worker thread while
    // shard 0 runs node 0's event at the same tick.
    auto run = [] {
        try {
            sim::EventQueue eq;
            sim::ShardGroup group(eq, 2, sim::columnBands(2, 1, 2));
            sim::Timer timer(eq, [] {});
            timer.arm(100);
            eq.scheduleAtNode(0, 10, [] {});
            eq.scheduleAtNode(1, 10, [&timer] { timer.arm(50); });
            eq.runUntil(64);
        } catch (const sim::PanicError &e) {
            // Surfaced on the driving thread instead of a worker.
            std::fprintf(stderr, "%s\n", e.what());
            std::abort();
        }
    };
    EXPECT_DEATH(run(), "a parallel phase may move only its own leaf's "
                        "timers");
}

TEST(ShardGroup, RejectsAShardThatOwnsNoNode)
{
    sim::EventQueue eq;
    // Two nodes, both on shard 0: shard 1 would own nothing.
    EXPECT_THROW(sim::ShardGroup(eq, 2, {0, 0}), sim::PanicError);
    // More shards than nodes (including one whose + 1 would wrap).
    EXPECT_THROW(sim::ShardGroup(eq, 3, {0, 1}), sim::PanicError);
    EXPECT_THROW(sim::ShardGroup(eq, 0xFFFF'FFFFu, {0, 1}),
                 sim::PanicError);
    // A rejected group never bound the anchor.
    sim::ShardGroup ok(eq, 2, {0, 1});
    EXPECT_EQ(ok.shards(), 2u);
}

// ------------------------------------------------------ chaos harness

/**
 * Digest of one small fault-injected cluster run at @p shards. Mirrors
 * the golden-trace chaos digest's fields (exact integers only — the
 * sharded latency aggregates, the merged fault stats, per-unit state).
 */
struct ChaosRun
{
    std::uint64_t digest;   ///< observable protocol/NoC/fault state
    std::uint64_t executed; ///< kernel events (observers add their own)
};

ChaosRun
chaosRun(std::uint32_t shards, bool observe = false,
         record::FlightRecorder *rec = nullptr)
{
    fault::ChaosConfig cc;
    cc.width = 6;
    cc.height = 6;
    cc.shards = shards;
    cc.seedBase = 77;
    cc.fault.seed = 77;
    cc.fault.coinTrafficOnly = true;
    cc.fault.base.drop = 0.04;
    cc.fault.base.duplicate = 0.02;
    cc.fault.base.corrupt = 0.01;
    cc.fault.outages.push_back({14, 3'000, 9'000, false});
    cc.auditPeriod = 4'096;
    fault::ChaosCluster cluster(cc);

    trace::Tracer tracer;
    trace::Registry reg;
    if (observe) {
        cluster.attachTrace(&tracer);
        cluster.attachMetrics(&reg, 1024);
    }
    if (rec)
        cluster.attachRecorder(rec);

    const std::size_t n = cluster.size();
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const coin::Coins m = 8 << (i % 3);
        cluster.setMax(i, m);
        demand += m;
    }
    for (std::size_t i = 0; i < n / 4; ++i)
        cluster.setHas(i, demand / 2 / (n / 4));
    cluster.sealProvision();
    cluster.startAll();
    cluster.eq().runUntil(9'000);
    cluster.runUntilConverged(2.5, 64, 60'000);
    const auto report = cluster.quiesce(16'384);

    sim::Fnv1a dg;
    dg.i64(report.gap);
    dg.i64(report.counted);
    dg.u64(report.crashedUnits);
    dg.u64(cluster.eq().now());
    const auto &net = cluster.net();
    dg.u64(net.packetsSent());
    dg.u64(net.packetsDelivered());
    dg.u64(net.packetsDropped());
    dg.u64(net.totalHops());
    dg.u64(net.latencyCount());
    dg.u64(net.latencySumTicks());
    dg.u64(net.latencyMaxTicks());
    const auto fs = cluster.plane().stats();
    dg.u64(fs.drops);
    dg.u64(fs.delays);
    dg.u64(fs.duplicates);
    dg.u64(fs.corruptions);
    dg.u64(fs.outageDrops);
    dg.u64(fs.partitionDrops);
    for (std::size_t i = 0; i < n; ++i) {
        dg.i64(cluster.unit(i).has());
        dg.u64(cluster.unit(i).updatesRecovered());
        dg.u64(cluster.unit(i).exchangesAbandoned());
        dg.u64(cluster.unit(i).duplicatesIgnored());
    }
    return {dg.value(), cluster.eq().totalExecuted()};
}

TEST(ShardedChaos, ShardCounts124AreBitIdentical)
{
    const ChaosRun one = chaosRun(1);
    const ChaosRun two = chaosRun(2);
    const ChaosRun four = chaosRun(4);
    EXPECT_EQ(two.digest, one.digest);
    EXPECT_EQ(four.digest, one.digest);
    // Stronger than the observable digest: the kernel executed the
    // exact same number of events no matter the partition.
    EXPECT_EQ(two.executed, one.executed);
    EXPECT_EQ(four.executed, one.executed);
}

TEST(ShardedChaos, ObserversDoNotPerturbTheRun)
{
    // Tracer + metrics + flight recorder attached to a 4-shard run:
    // all three are passive (mutex-guarded appends, sampled gauges in
    // the serial lane), so the digest must not move — and under tsan
    // this is the concurrent-observer race probe. (executed moves: the
    // sampler schedules its own serial-lane events.)
    record::FlightRecorder rec;
    const ChaosRun observed = chaosRun(4, /*observe=*/true, &rec);
    EXPECT_EQ(observed.digest, chaosRun(4).digest);
    EXPECT_GT(rec.totalAppended(), 0u);
    EXPECT_TRUE(rec.concurrent());
}

TEST(ShardedChaos, RecorderCountsAreShardCountInvariant)
{
    // Record order within a tick is unspecified across shards, but the
    // set of journaled decisions is not: total appended records must
    // match between a 1-shard and a 4-shard run of the same scenario.
    record::FlightRecorder rec1, rec4;
    const ChaosRun d1 = chaosRun(1, false, &rec1);
    const ChaosRun d4 = chaosRun(4, false, &rec4);
    EXPECT_EQ(d1.digest, d4.digest);
    EXPECT_EQ(rec1.totalAppended(), rec4.totalAppended());
}

TEST(ShardedChaos, ShardCountIsClampedToTheMeshWidth)
{
    fault::ChaosConfig cc;
    cc.width = 4;
    cc.height = 4;
    cc.shards = 64;
    fault::ChaosCluster cluster(cc);
    ASSERT_NE(cluster.shardGroup(), nullptr);
    EXPECT_EQ(cluster.shardGroup()->shards(), 4u);
}

TEST(DefaultShards, ParsesTheWholeValue)
{
    ASSERT_EQ(unsetenv("BLITZ_SHARDS"), 0);
    EXPECT_EQ(sim::defaultShards(), 1u);
    ASSERT_EQ(setenv("BLITZ_SHARDS", "4", 1), 0);
    EXPECT_EQ(sim::defaultShards(), 4u);
    ASSERT_EQ(setenv("BLITZ_SHARDS", "4294967295", 1), 0);
    EXPECT_EQ(sim::defaultShards(), 4294967295u);
    ASSERT_EQ(unsetenv("BLITZ_SHARDS"), 0);
}

TEST(DefaultShards, RejectsMalformedValuesWithAWarning)
{
    // Each would once have parsed to a different count ("4abc" as 4,
    // "4294967296" as 0, which selects the legacy engine); all must
    // warn and fall back to 1 instead.
    for (const char *bad : {"4abc", "4294967296", "0", "-2", "", "x"}) {
        ASSERT_EQ(setenv("BLITZ_SHARDS", bad, 1), 0);
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(sim::defaultShards(), 1u) << "'" << bad << "'";
        EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                      "invalid BLITZ_SHARDS"),
                  std::string::npos)
            << "'" << bad << "'";
    }
    ASSERT_EQ(unsetenv("BLITZ_SHARDS"), 0);
}

TEST(ShardedChaos, LegacyModeIsUntouchedByDefault)
{
    fault::ChaosConfig cc;
    fault::ChaosCluster cluster(cc);
    EXPECT_EQ(cluster.shardGroup(), nullptr);
    // Unsharded latency Summary stays reachable.
    (void)cluster.net().latency();
}

} // namespace
