/**
 * @file
 * Exchange-recovery tests: each of the fault cases the hardened 1-way
 * protocol must survive — dropped CoinStatus, dropped CoinUpdate,
 * duplicated packets, and a crash mid-exchange — ends with the cluster
 * re-converged and the seeded coin total restored exactly (asserted
 * through the ledger audit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coin/exchange.hpp"
#include "lossy_cluster.hpp"
#include "sim/rng.hpp"
#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace blitz;
using blitz::testing::LossyCluster;
using blitz::testing::lossyConfig;

constexpr int kStatus = static_cast<int>(noc::MsgType::CoinStatus);
constexpr int kUpdate = static_cast<int>(noc::MsgType::CoinUpdate);

/** Seed a 2-tile cluster with 16 coins parked on tile 0. */
void
seedPair(LossyCluster &c)
{
    c.unit(0).setMax(8);
    c.unit(1).setMax(8);
    c.unit(0).setHas(16);
    c.c.sealProvision();
    c.startAll();
}

TEST(Recovery, DroppedStatusResolvesAsNullExchange)
{
    // Every CoinStatus is destroyed: no rebalance can ever run, but
    // each timed-out exchange must be resolved cleanly through the
    // CoinRecover probe ("never served" -> delta 0), not abandoned.
    auto cfg = lossyConfig(2, 0.0);
    cfg.fault.messages[kStatus].drop = 1.0;
    LossyCluster c(cfg);
    seedPair(c);
    c.eq().runUntil(60000);
    EXPECT_GT(c.dropped(), 0u);
    EXPECT_EQ(c.unit(0).has(), 16); // nothing ever moved
    EXPECT_EQ(c.totalCoins(), 16);
    std::uint64_t resolved = c.unit(0).updatesRecovered() +
                             c.unit(1).updatesRecovered();
    EXPECT_GT(resolved, 0u) << "recover probes never resolved anything";
    EXPECT_EQ(c.unit(0).exchangesAbandoned(), 0u);
    EXPECT_EQ(c.unit(1).exchangesAbandoned(), 0u);
}

TEST(Recovery, DroppedUpdateDeltaIsReplayed)
{
    // Half the CoinUpdates vanish. The partner's half of each affected
    // exchange already ran, so conservation now depends on the
    // initiator recovering the delta from the partner's served log.
    auto cfg = lossyConfig(2, 0.0);
    cfg.fault.messages[kUpdate].drop = 0.5;
    LossyCluster c(cfg);
    seedPair(c);
    c.eq().runUntil(100000);
    EXPECT_GT(c.dropped(), 0u);
    std::uint64_t recovered = c.unit(0).updatesRecovered() +
                              c.unit(1).updatesRecovered();
    EXPECT_GT(recovered, 0u);
    // Drain the recovery tail, then audit: the total must close
    // exactly, and the pair must have equalized despite the losses.
    c.c.quiesce(70000);
    EXPECT_EQ(c.totalCoins(), 16);
    EXPECT_EQ(c.unit(0).has(), 8);
    EXPECT_EQ(c.unit(1).has(), 8);
}

TEST(Recovery, DuplicatedUpdateAppliesOnce)
{
    // Every CoinUpdate is delivered twice. Without the sequence
    // stamps the second copy would re-apply the delta and mint coins.
    auto cfg = lossyConfig(2, 0.0);
    cfg.fault.messages[kUpdate].duplicate = 1.0;
    LossyCluster c(cfg);
    seedPair(c);
    c.eq().runUntil(60000);
    std::uint64_t ignored = c.unit(0).duplicatesIgnored() +
                            c.unit(1).duplicatesIgnored();
    EXPECT_GT(ignored, 0u);
    c.c.quiesce();
    EXPECT_EQ(c.totalCoins(), 16);
    EXPECT_EQ(c.unit(0).has(), 8);
    EXPECT_EQ(c.unit(1).has(), 8);
}

TEST(Recovery, DuplicatedStatusServedFromLog)
{
    // Every CoinStatus is delivered twice. The partner must replay
    // the logged outcome for the second copy instead of running the
    // rebalance again (which would double-move coins).
    auto cfg = lossyConfig(2, 0.0);
    cfg.fault.messages[kStatus].duplicate = 1.0;
    LossyCluster c(cfg);
    seedPair(c);
    c.eq().runUntil(60000);
    std::uint64_t ignored = c.unit(0).duplicatesIgnored() +
                            c.unit(1).duplicatesIgnored();
    EXPECT_GT(ignored, 0u);
    c.c.quiesce();
    EXPECT_EQ(c.totalCoins(), 16);
    EXPECT_EQ(c.unit(0).has(), 8);
    EXPECT_EQ(c.unit(1).has(), 8);
}

TEST(Recovery, CorruptedPacketsAreDroppedAndRecovered)
{
    // Corruption flips payload bits; the CRC flag makes endpoints
    // discard the flit, so it degrades into loss — which the protocol
    // recovers — rather than into silently wrong deltas.
    auto cfg = lossyConfig(3, 0.0);
    cfg.fault.base.corrupt = 0.2;
    cfg.fault.coinTrafficOnly = true;
    LossyCluster c(cfg);
    const coin::Coins maxes[9] = {10, 20, 40, 10, 60, 20, 10, 20, 10};
    for (std::size_t i = 0; i < 9; ++i)
        c.unit(i).setMax(maxes[i]);
    c.unit(4).setHas(95);
    c.c.sealProvision();
    c.startAll();
    c.eq().runUntil(150000);
    std::uint64_t crcDrops = 0;
    for (std::size_t i = 0; i < 9; ++i)
        crcDrops += c.unit(i).corruptedDropped();
    EXPECT_GT(crcDrops, 0u);
    c.c.quiesce(70000);
    EXPECT_EQ(c.totalCoins(), 95);
}

TEST(Recovery, CrashMidExchangeRestoredByAudit)
{
    // Tile 4 (holding most of the pool) power-fails mid-run and comes
    // back later. Its coins are gone — in-flight exchanges with it
    // are abandoned after the recover probes go unanswered — and only
    // the audit watchdog can restore the provisioned total.
    auto cfg = lossyConfig(3, 0.0);
    cfg.fault.outages.push_back({4, 2000, 12000, false});
    LossyCluster c(cfg);
    const coin::Coins maxes[9] = {10, 20, 40, 10, 60, 20, 10, 20, 10};
    for (std::size_t i = 0; i < 9; ++i)
        c.unit(i).setMax(maxes[i]);
    c.unit(4).setHas(95);
    c.c.sealProvision();
    c.startAll();

    // Let the crash hit while coins are still concentrated on tile 4.
    c.eq().runUntil(3000);
    EXPECT_TRUE(c.unit(4).crashed());
    EXPECT_LT(c.totalCoins(), 95) << "the crash destroyed no coins?";

    // Run past the restart; the tile resumes (max restored) with
    // empty registers, then the audit sweep remints the loss.
    c.eq().runUntil(60000);
    EXPECT_FALSE(c.unit(4).crashed());
    EXPECT_EQ(c.unit(4).max(), 60);
    auto report = c.c.quiesce(70000);
    EXPECT_GT(report.gap, 0) << "audit saw no gap to close";
    EXPECT_EQ(c.totalCoins(), 95);

    // And the reminted cluster still converges proportionally.
    c.eq().runUntil(c.eq().now() + 100000);
    double alpha = 95.0 / 200.0;
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_NEAR(static_cast<double>(c.unit(i).has()),
                    alpha * static_cast<double>(maxes[i]), 6.0)
            << "tile " << i;
    }
    EXPECT_EQ(c.totalCoins(), 95);
}

TEST(Recovery, CrashZeroesRegisters)
{
    LossyCluster c(4, 0.0);
    for (std::size_t i = 0; i < c.c.size(); ++i) {
        c.unit(i).setMax(16);
        c.unit(i).setHas(8);
    }
    c.startAll();
    c.eq().runUntil(4096);
    c.unit(3).crash();
    EXPECT_TRUE(c.unit(3).crashed());
    EXPECT_FALSE(c.unit(3).running());
    EXPECT_EQ(c.unit(3).has(), 0);
    EXPECT_EQ(c.unit(3).max(), 0);

    // Restart brings the tile back with the registers still empty.
    c.unit(3).restart();
    EXPECT_FALSE(c.unit(3).crashed());
    EXPECT_EQ(c.unit(3).has(), 0);
    EXPECT_EQ(c.unit(3).max(), 0);
}

TEST(Recovery, QuarantineSurvivesCrashAndRestart)
{
    LossyCluster c(4, 0.0);
    for (std::size_t i = 0; i < c.c.size(); ++i) {
        c.unit(i).setMax(16);
        c.unit(i).setHas(8);
    }
    c.startAll();
    c.eq().runUntil(4096);
    c.unit(7).quarantine();
    EXPECT_TRUE(c.unit(7).quarantined());
    EXPECT_FALSE(c.unit(7).running());

    // Sticky: a later power cycle neither lifts the fence nor lets
    // the tile resume initiating.
    c.unit(7).crash();
    EXPECT_TRUE(c.unit(7).quarantined());
    c.unit(7).restart();
    c.unit(7).start();
    EXPECT_TRUE(c.unit(7).quarantined());
    EXPECT_FALSE(c.unit(7).running());
    c.eq().runUntil(16384);
    EXPECT_TRUE(c.unit(7).quarantined());
}

TEST(Recovery, AuditCensusMatchesManualWalk)
{
    LossyCluster c(4, 0.05);
    for (std::size_t i = 0; i < c.c.size(); ++i) {
        c.unit(i).setMax(16);
        c.unit(i).setHas(8);
    }
    c.startAll();
    c.eq().runUntil(4096);
    c.unit(1).crash();
    c.unit(6).quarantine();
    c.eq().runUntil(8192);

    std::size_t crashed = 0, quarantined = 0;
    coin::Coins counted = 0;
    for (std::size_t i = 0; i < c.c.size(); ++i) {
        const auto &u = c.unit(i);
        if (u.quarantined())
            ++quarantined;
        else if (u.crashed())
            ++crashed;
        else
            counted += u.has();
    }
    EXPECT_EQ(crashed, 1u);
    EXPECT_EQ(quarantined, 1u);
    const blitzcoin::AuditReport r = c.c.audit().audit();
    EXPECT_EQ(r.crashedUnits, crashed);
    EXPECT_EQ(r.quarantinedUnits, quarantined);
    EXPECT_EQ(r.counted, counted);
    EXPECT_EQ(r.gap, r.expected - counted);
}

TEST(Recovery, SocClusterCoinsEqualPoolAfterRun)
{
    soc::PmConfig pm;
    pm.kind = soc::PmKind::BlitzCoin;
    pm.budgetMw = 60.0;
    soc::Soc s(soc::make3x3AvSoc(), pm, 31);
    auto st = s.run(soc::avDependent(s.config(), 2));
    ASSERT_TRUE(st.completed);

    // Drain in-flight exchanges; with no faults the books close
    // without any audit correction.
    auto &bc = dynamic_cast<soc::BlitzCoinPm &>(s.pm());
    for (noc::NodeId id : s.config().managedAccelerators())
        bc.unit(id).stop();
    auto &eq = s.eventQueue();
    eq.runUntil(eq.now() + 100000);
    EXPECT_EQ(bc.clusterCoins(), bc.scale().poolCoins);
    EXPECT_EQ(bc.audit().audit().gap, 0);
}

// ------------------------------------------------------------- storms
//
// Sustained reorder/duplicate/stale-sequence pressure, observed through
// the metrics registry: beyond surviving the storm with the books
// closed, the registry's exchange-loss columns must agree exactly with
// the FaultPlane and unit ground truth, so the observability plane can
// be trusted to report chaos runs faithfully.

/** Value of the named column in the registry's latest snapshot. */
double
lastValue(const trace::Registry &reg, const std::string &name)
{
    const auto &schema = reg.schema();
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i] == name)
            return reg.snapshots().back().values[i];
    }
    ADD_FAILURE() << "no metric column named " << name;
    return -1.0;
}

TEST(Recovery, ReorderStormResolvesStaleSequencesOnce)
{
    // Most coin packets are held back 1..2048 ticks, shuffling
    // delivery order: a delayed CoinUpdate routinely arrives after its
    // exchange already timed out and was resolved through CoinRecover,
    // so the late copy carries a stale sequence number and must be
    // ignored, not re-applied.
    auto cfg = lossyConfig(3, 0.0);
    cfg.fault.coinTrafficOnly = true;
    cfg.fault.base.delay = 0.7;
    cfg.fault.base.delayMin = 1;
    cfg.fault.base.delayMax = 2048;
    LossyCluster c(cfg);
    trace::Registry reg;
    c.c.attachMetrics(&reg, /*interval=*/2048);
    const coin::Coins maxes[9] = {10, 20, 40, 10, 60, 20, 10, 20, 10};
    for (std::size_t i = 0; i < 9; ++i)
        c.unit(i).setMax(maxes[i]);
    c.unit(4).setHas(95);
    c.c.sealProvision();
    c.startAll();
    c.eq().runUntil(150000);
    c.c.quiesce(70000);
    EXPECT_EQ(c.totalCoins(), 95);

    reg.sample(c.eq().now());
    EXPECT_GT(lastValue(reg, "fault.delays"), 0.0);
    EXPECT_EQ(lastValue(reg, "fault.delays"),
              static_cast<double>(c.c.plane().stats().delays));
    std::uint64_t stale = 0, recovered = 0;
    for (std::size_t i = 0; i < 9; ++i) {
        stale += c.unit(i).duplicatesIgnored();
        recovered += c.unit(i).updatesRecovered();
    }
    EXPECT_GT(stale, 0u) << "no reordered packet ever went stale";
    EXPECT_GT(recovered, 0u) << "no timed-out delta was replayed";
    EXPECT_EQ(lastValue(reg, "coin.duplicates_ignored"),
              static_cast<double>(stale));
    EXPECT_EQ(lastValue(reg, "coin.updates_recovered"),
              static_cast<double>(recovered));
}

TEST(Recovery, DuplicateStormAppliesEachDeltaOnce)
{
    // Every coin packet is retransmitted. The replay log and sequence
    // stamps must make each delta count exactly once, and the
    // registry's duplicate accounting must match both the plane (copies
    // injected) and the units (copies ignored).
    auto cfg = lossyConfig(3, 0.0);
    cfg.fault.coinTrafficOnly = true;
    cfg.fault.base.duplicate = 1.0;
    LossyCluster c(cfg);
    trace::Registry reg;
    c.c.attachMetrics(&reg, /*interval=*/2048);
    const coin::Coins maxes[9] = {10, 20, 40, 10, 60, 20, 10, 20, 10};
    for (std::size_t i = 0; i < 9; ++i)
        c.unit(i).setMax(maxes[i]);
    c.unit(4).setHas(95);
    c.c.sealProvision();
    c.startAll();
    c.eq().runUntil(150000);
    c.c.quiesce(70000);
    EXPECT_EQ(c.totalCoins(), 95);

    reg.sample(c.eq().now());
    const auto &fs = c.c.plane().stats();
    EXPECT_GT(fs.duplicates, 0u);
    EXPECT_EQ(lastValue(reg, "fault.duplicates"),
              static_cast<double>(fs.duplicates));
    std::uint64_t ignored = 0;
    for (std::size_t i = 0; i < 9; ++i)
        ignored += c.unit(i).duplicatesIgnored();
    EXPECT_GT(ignored, 0u);
    EXPECT_EQ(lastValue(reg, "coin.duplicates_ignored"),
              static_cast<double>(ignored));
    EXPECT_EQ(lastValue(reg, "noc.packets_delivered"),
              static_cast<double>(c.c.net().packetsDelivered()));
}

TEST(Recovery, CombinedStormLossAccountingMatchesGroundTruth)
{
    // Drop + heavy delay + duplication at once: every recovery
    // mechanism runs concurrently. The registry's exchange-loss
    // columns (timeouts, recoveries, stale copies, injected faults)
    // must equal the FaultPlane and unit counters exactly, and the
    // books must still close.
    auto cfg = lossyConfig(3, 0.0);
    cfg.fault.coinTrafficOnly = true;
    cfg.fault.base.drop = 0.15;
    cfg.fault.base.delay = 0.5;
    cfg.fault.base.delayMin = 1;
    cfg.fault.base.delayMax = 1024;
    cfg.fault.base.duplicate = 0.5;
    LossyCluster c(cfg);
    trace::Registry reg;
    c.c.attachMetrics(&reg, /*interval=*/2048);
    const coin::Coins maxes[9] = {10, 20, 40, 10, 60, 20, 10, 20, 10};
    for (std::size_t i = 0; i < 9; ++i)
        c.unit(i).setMax(maxes[i]);
    c.unit(4).setHas(95);
    c.c.sealProvision();
    c.startAll();
    c.eq().runUntil(150000);
    c.c.quiesce(70000);
    EXPECT_EQ(c.totalCoins(), 95);

    reg.sample(c.eq().now());
    const auto &fs = c.c.plane().stats();
    EXPECT_GT(fs.drops, 0u);
    EXPECT_EQ(lastValue(reg, "fault.drops"),
              static_cast<double>(fs.drops));
    EXPECT_EQ(lastValue(reg, "fault.delays"),
              static_cast<double>(fs.delays));
    EXPECT_EQ(lastValue(reg, "fault.duplicates"),
              static_cast<double>(fs.duplicates));
    std::uint64_t timedOut = 0, recovered = 0, ignored = 0;
    for (std::size_t i = 0; i < 9; ++i) {
        timedOut += c.unit(i).exchangesTimedOut();
        recovered += c.unit(i).updatesRecovered();
        ignored += c.unit(i).duplicatesIgnored();
    }
    EXPECT_GT(timedOut, 0u) << "the storm never timed out an exchange";
    EXPECT_GT(recovered, 0u);
    EXPECT_EQ(lastValue(reg, "coin.exchanges_timed_out"),
              static_cast<double>(timedOut));
    EXPECT_EQ(lastValue(reg, "coin.updates_recovered"),
              static_cast<double>(recovered));
    EXPECT_EQ(lastValue(reg, "coin.duplicates_ignored"),
              static_cast<double>(ignored));
}

TEST(Recovery, CrashInsidePartitionRemintedAfterHeal)
{
    // Worst case for the remint watchdog: tile 4 (holding the whole
    // pool) power-fails *while its entire column is partitioned off*,
    // and even restarts before the partition heals. The audit census
    // counts crashed tiles at zero, so the gap is visible and reminted
    // to the reachable side while the column is still dark; after the
    // heal the books must close exactly — no double remint when the
    // restarted (empty) tile rejoins.
    auto cfg = lossyConfig(3, 0.0);
    cfg.fault.outages.push_back({4, 2000, 12000, false});
    noc::Topology topo(3, 3, false);
    // Cut both column boundaries: nodes {1, 4, 7} are unreachable for
    // the whole crash window and well past the restart.
    cfg.fault.partitions.push_back(
        fault::columnPartition(topo, 0, 2000, 20000));
    cfg.fault.partitions.push_back(
        fault::columnPartition(topo, 1, 2000, 20000));
    cfg.auditPeriod = 4096;
    LossyCluster c(cfg);
    const coin::Coins maxes[9] = {10, 20, 40, 10, 60, 20, 10, 20, 10};
    for (std::size_t i = 0; i < 9; ++i)
        c.unit(i).setMax(maxes[i]);
    c.unit(4).setHas(95);
    c.c.sealProvision();
    c.startAll();

    c.eq().runUntil(3000);
    EXPECT_TRUE(c.unit(4).crashed());
    EXPECT_LT(c.totalCoins(), 95) << "the crash destroyed no coins?";

    // Restart happens at 12000, still inside the partition window: the
    // tile is back up (empty registers) but unreachable over the NoC.
    c.eq().runUntil(16000);
    EXPECT_FALSE(c.unit(4).crashed());
    // The periodic audit sweep runs in the serial lane, not over the
    // mesh, so it has already reminted the loss — conservation does
    // not wait for the heal.
    EXPECT_GT(c.c.audit().coinsMinted(), 0)
        << "no remint while the column was dark";
    EXPECT_EQ(c.totalCoins(), 95) << "census missed the restarted tile";

    // Heal, settle, and close the books exactly.
    c.eq().runUntil(60000);
    auto report = c.c.quiesce(70000);
    EXPECT_EQ(report.gap, 0) << "books did not close after the heal";
    EXPECT_EQ(c.totalCoins(), 95);

    // And the healed cluster still converges proportionally.
    c.eq().runUntil(c.eq().now() + 100000);
    double alpha = 95.0 / 200.0;
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_NEAR(static_cast<double>(c.unit(i).has()),
                    alpha * static_cast<double>(maxes[i]), 6.0)
            << "tile " << i;
    }
    EXPECT_EQ(c.totalCoins(), 95);
}

TEST(Recovery, FrozenTileKeepsItsCoins)
{
    // A freeze window is a clock-gated stall, not a crash: the tile
    // keeps its registers and resumes where it left off; no remint is
    // needed.
    auto cfg = lossyConfig(2, 0.0);
    cfg.fault.outages.push_back({1, 1000, 4000, true});
    LossyCluster c(cfg);
    seedPair(c);
    c.eq().runUntil(2000);
    EXPECT_FALSE(c.unit(1).crashed());
    const coin::Coins held = c.unit(1).has();
    c.eq().runUntil(3900);
    EXPECT_EQ(c.unit(1).has(), held) << "frozen tile moved coins";
    c.eq().runUntil(60000);
    auto report = c.c.quiesce(70000);
    EXPECT_EQ(report.gap, 0) << "a freeze should never destroy coins";
    EXPECT_EQ(c.totalCoins(), 16);
    EXPECT_EQ(c.unit(0).has(), 8);
    EXPECT_EQ(c.unit(1).has(), 8);
}

// ------------------------------------------------------- served log

/**
 * A mesh of units, none started. The last tile's unit is the partner
 * under test; every other tile is unplugged from the NoC so the test
 * speaks for it: it sends forged CoinStatus/CoinRecover packets to the
 * partner and reads the partner's CoinUpdate replies, which exercises
 * the partner's served log in isolation. The default is a 1x2 mesh,
 * tile 0 speaking to tile 1.
 */
struct ServedLogProbe
{
    fault::ChaosCluster c;
    noc::NodeId partner;
    std::vector<noc::Packet> replies;

    explicit ServedLogProbe(std::size_t depth = 8, int width = 2,
                            int height = 1)
        : c(config(depth, width, height)),
          partner(static_cast<noc::NodeId>(width * height - 1))
    {
        for (noc::NodeId t = 0; t < partner; ++t)
            c.net().setHandler(t, [this](const noc::Packet &p) {
                replies.push_back(p);
            });
        c.unit(partner).setMax(8);
    }

    static fault::ChaosConfig
    config(std::size_t depth, int width, int height)
    {
        auto cfg = lossyConfig(width, 0.0);
        cfg.height = height;
        cfg.unit.servedLogDepth = depth;
        return cfg;
    }

    /** Deliver @p pkt from tile @p from and return the one reply. */
    noc::Packet
    exchange(noc::Packet pkt, noc::NodeId from)
    {
        pkt.src = from;
        pkt.dst = partner;
        pkt.plane = noc::Plane::Service;
        const std::size_t before = replies.size();
        c.net().send(pkt);
        c.eq().runUntil(c.eq().now() + 200);
        if (replies.size() != before + 1) {
            ADD_FAILURE() << "expected one reply, got "
                          << replies.size() - before;
            return noc::Packet{};
        }
        EXPECT_EQ(replies.back().dst, from);
        return replies.back();
    }

    /** 1-way opening from tile @p from advertising (has, max). */
    noc::Packet
    status(std::uint64_t xid, coin::Coins has, coin::Coins max,
           noc::NodeId from = 0)
    {
        noc::Packet pkt;
        pkt.type = noc::MsgType::CoinStatus;
        pkt.payload[0] = has;
        pkt.payload[1] = max;
        pkt.payload[2] = coin::uncapped;
        pkt.payload[3] =
            blitzcoin::wire::packTag(xid, blitzcoin::wire::FlagOneWay);
        return exchange(pkt, from);
    }

    /** Reconciliation probe from tile @p from for exchange @p xid. */
    noc::Packet
    recover(std::uint64_t xid, noc::NodeId from = 0)
    {
        noc::Packet pkt;
        pkt.type = noc::MsgType::CoinRecover;
        pkt.payload[0] = static_cast<std::int64_t>(xid);
        return exchange(pkt, from);
    }
};

/** Expect a 1-way CoinUpdate for @p xid carrying @p delta / @p flag. */
void
expectUpdate(const noc::Packet &p, std::uint64_t xid, coin::Coins delta,
             int flag)
{
    EXPECT_EQ(p.type, noc::MsgType::CoinUpdate);
    EXPECT_EQ(blitzcoin::wire::tagValue(p.payload[3]), xid);
    EXPECT_EQ(blitzcoin::wire::tagFlag(p.payload[3]), flag);
    EXPECT_EQ(p.payload[0], delta);
}

TEST(ServedLog, DuplicateStatusReplaysRecordedDelta)
{
    using blitzcoin::wire::FlagOneWay;
    ServedLogProbe p;
    // Tile 0 advertises 16 coins against max 8; tile 1 (max 8, no
    // coins) takes 8, so the initiator is told -8.
    expectUpdate(p.status(5, 16, 8), 5, -8, FlagOneWay);
    EXPECT_EQ(p.c.unit(1).has(), 8);
    // The same stamp again, with different registers: the logged
    // outcome is replayed and no coin moves a second time.
    expectUpdate(p.status(5, 40, 8), 5, -8, FlagOneWay);
    EXPECT_EQ(p.c.unit(1).has(), 8);
    EXPECT_EQ(p.c.unit(1).duplicatesIgnored(), 1u);
    // A recover probe for it replays the same delta.
    expectUpdate(p.recover(5), 5, -8, FlagOneWay);
    EXPECT_EQ(p.c.unit(1).has(), 8);
}

TEST(ServedLog, RecoverPastDepthIsUnknown)
{
    using blitzcoin::wire::FlagOneWay;
    using blitzcoin::wire::FlagUnknown;
    ServedLogProbe p(2);
    expectUpdate(p.status(1, 16, 8), 1, -8, FlagOneWay);
    expectUpdate(p.status(2, 0, 8), 2, 4, FlagOneWay);
    expectUpdate(p.status(3, 0, 8), 3, 2, FlagOneWay);
    // xid 1 fell out of the depth-2 log; it is older than the newest
    // entry, so its outcome is reported unknown, never as a null.
    expectUpdate(p.recover(1), 1, 0, FlagUnknown);
    // The two entries still held replay.
    expectUpdate(p.recover(2), 2, 4, FlagOneWay);
    expectUpdate(p.recover(3), 3, 2, FlagOneWay);
    // A fourth opening evicts xid 2 as well: the log keeps only the
    // newest two.
    expectUpdate(p.status(4, 2, 8), 4, 0, FlagOneWay);
    expectUpdate(p.recover(2), 2, 0, FlagUnknown);
    expectUpdate(p.recover(3), 3, 2, FlagOneWay);
}

TEST(ServedLog, RecoverNeverServedIsNull)
{
    using blitzcoin::wire::FlagOneWay;
    ServedLogProbe p;
    // No entry for the initiator at all.
    expectUpdate(p.recover(9), 9, 0, FlagOneWay);
    // An entry exists but this stamp is newer: its CoinStatus was
    // lost in transit, so nothing moved.
    expectUpdate(p.status(10, 16, 8), 10, -8, FlagOneWay);
    expectUpdate(p.recover(11), 11, 0, FlagOneWay);
    EXPECT_EQ(p.c.unit(1).has(), 8);
}

TEST(ServedLog, CrashEmptiesTheLog)
{
    using blitzcoin::wire::FlagOneWay;
    ServedLogProbe p;
    expectUpdate(p.status(3, 16, 8), 3, -8, FlagOneWay);
    expectUpdate(p.status(4, 16, 8), 4, -4, FlagOneWay);
    p.c.unit(1).crash();
    p.c.unit(1).restart();
    p.c.unit(1).setMax(8);
    // Neither stamp is remembered: both read as never served, not as
    // a replay and not as unknown.
    expectUpdate(p.recover(3), 3, 0, FlagOneWay);
    expectUpdate(p.recover(4), 4, 0, FlagOneWay);
    // And a duplicate opening is served as a fresh exchange.
    expectUpdate(p.status(4, 16, 8), 4, -8, FlagOneWay);
    EXPECT_EQ(p.c.unit(1).has(), 8);
}

/**
 * The served log as one sorted vector of 24-byte {initiator, xid,
 * delta} entries searched by binary search: the layout the unit kept
 * before its initiator keys and records were split. The split log must
 * answer every probe exactly as this one does.
 */
class ReferenceServedLog
{
  private:
    struct Entry
    {
        noc::NodeId initiator = 0;
        std::uint64_t xid = 0;
        coin::Coins delta = 0;
    };
    static_assert(sizeof(Entry) == 24);

    /** @p initiator's entries in @p log, oldest first. */
    template <typename Log>
    static auto
    run(Log &log, noc::NodeId initiator)
    {
        const auto byInitiator = [](const Entry &e, noc::NodeId id) {
            return e.initiator < id;
        };
        const auto first = std::lower_bound(log.begin(), log.end(),
                                            initiator, byInitiator);
        auto last = first;
        while (last != log.end() && last->initiator == initiator)
            ++last;
        return std::pair{first, last};
    }

  public:
    explicit ReferenceServedLog(std::size_t depth) : depth_(depth) {}

    /** The delta recorded for (@p initiator, @p xid), if still held. */
    std::optional<coin::Coins>
    find(noc::NodeId initiator, std::uint64_t xid) const
    {
        const auto [first, last] = run(log_, initiator);
        for (auto e = first; e != last; ++e)
            if (e->xid == xid)
                return e->delta;
        return std::nullopt;
    }

    /** The (delta, flag) a CoinRecover for @p xid must be answered with. */
    std::pair<coin::Coins, int>
    recover(noc::NodeId initiator, std::uint64_t xid) const
    {
        if (const auto d = find(initiator, xid))
            return {*d, blitzcoin::wire::FlagOneWay};
        const auto [first, last] = run(log_, initiator);
        if (first != last && xid < std::prev(last)->xid)
            return {0, blitzcoin::wire::FlagUnknown};
        return {0, blitzcoin::wire::FlagOneWay};
    }

    /** Append to the initiator's run, dropping its oldest past depth. */
    void
    record(noc::NodeId initiator, std::uint64_t xid, coin::Coins delta)
    {
        if (depth_ == 0)
            return;
        const auto [first, last] = run(log_, initiator);
        const Entry e{initiator, xid, delta};
        if (static_cast<std::size_t>(last - first) == depth_) {
            std::move(std::next(first), last, first);
            *std::prev(last) = e;
            return;
        }
        log_.insert(last, e);
    }

    void clear() { log_.clear(); }

    /** Initiators with at least one entry held. */
    std::size_t
    initiators() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < log_.size(); ++i)
            n += i == 0 || log_[i].initiator != log_[i - 1].initiator;
        return n;
    }

  private:
    std::size_t depth_;
    std::vector<Entry> log_;
};

/**
 * Drive one partner with a seeded mix of fresh statuses, duplicate
 * statuses, recover probes (for an xid held in the run, older than the
 * run, never served, and forged far off) and crash wipes from 48
 * initiators, and check every reply against ReferenceServedLog.
 */
void
runServedLogDifferential(std::size_t depth, std::uint64_t seed)
{
    using blitzcoin::wire::FlagOneWay;
    using blitzcoin::wire::tagFlag;
    using blitzcoin::wire::tagValue;
    constexpr int kSide = 7;
    ServedLogProbe p(depth, kSide, kSide);
    blitzcoin::BlitzCoinUnit &u = p.c.unit(p.partner);
    const std::size_t initiators = p.partner;
    ReferenceServedLog ref(depth);
    sim::Rng rng(seed);
    // Highest stamp each initiator has opened with so far.
    std::vector<std::uint64_t> opened(initiators, 0);
    constexpr std::uint64_t kMaxTag = (std::uint64_t{1} << 56) - 1;
    std::size_t fresh = 0, dups = 0, held = 0, unknown = 0, nulls = 0;
    std::size_t crashes = 0, heldInitiators = 0;

    for (int step = 0; step < 1500; ++step) {
        SCOPED_TRACE("depth " + std::to_string(depth) + " seed " +
                     std::to_string(seed) + " step " +
                     std::to_string(step));
        // A skewed pick: a few initiators talk often enough to fill
        // and cycle their runs, the rest now and then.
        const auto from = static_cast<noc::NodeId>(
            rng.below(2) == 0 ? rng.below(initiators) : rng.below(6));
        std::uint64_t &top = opened[from];
        if (rng.below(250) == 0) {
            u.crash();
            u.restart();
            u.setMax(8);
            ref.clear();
            ++crashes;
            continue;
        }
        const std::uint64_t roll = rng.below(100);
        if (roll < 55) {
            // An opening: usually the next stamp, sometimes a replay
            // of a recent one (a duplicated packet, or one whose
            // record was evicted), sometimes a forged stamp.
            std::uint64_t xid = top + 1 + rng.below(3);
            if (roll >= 40 && top > 0)
                xid = top - std::min<std::uint64_t>(
                                top - 1, rng.below(depth + 3));
            else if (roll >= 37)
                xid = rng.below(kMaxTag - 8) + 1;
            top = std::max(top, xid);
            const coin::Coins has = rng.range(0, 24);
            const coin::Coins max = rng.range(0, 16);
            const coin::TileCoins before{u.has(), u.max()};
            const std::uint64_t dupsBefore = u.duplicatesIgnored();
            const noc::Packet r = p.status(xid, has, max, from);
            ASSERT_EQ(r.type, noc::MsgType::CoinUpdate);
            ASSERT_EQ(tagValue(r.payload[3]), xid);
            ASSERT_EQ(tagFlag(r.payload[3]), FlagOneWay);
            if (const auto d = ref.find(from, xid)) {
                // Replayed from the log: no coin moves again.
                ASSERT_EQ(r.payload[0], *d);
                ASSERT_EQ(u.has(), before.has);
                ASSERT_EQ(u.duplicatesIgnored(), dupsBefore + 1);
                ++dups;
            } else {
                const coin::Coins delta = coin::pairwiseDelta(
                    coin::TileCoins{has, max}, before, coin::uncapped,
                    coin::uncapped);
                ASSERT_EQ(r.payload[0], -delta);
                ASSERT_EQ(u.has(), before.has + delta);
                ASSERT_EQ(u.duplicatesIgnored(), dupsBefore);
                ref.record(from, xid, -delta);
                ++fresh;
            }
        } else {
            // A probe near the newest stamps (held, evicted or never
            // served), anywhere below them, or forged far off.
            std::uint64_t xid = top + 2 - std::min<std::uint64_t>(
                                              top + 2, rng.below(depth + 5));
            if (roll >= 95)
                xid = rng.below(kMaxTag) + 1;
            else if (roll >= 80)
                xid = rng.below(top + 2);
            const noc::Packet r = p.recover(xid, from);
            const auto [delta, flag] = ref.recover(from, xid);
            ASSERT_EQ(r.type, noc::MsgType::CoinUpdate);
            ASSERT_EQ(tagValue(r.payload[3]), xid);
            ASSERT_EQ(tagFlag(r.payload[3]), flag);
            ASSERT_EQ(r.payload[0], delta);
            if (flag != FlagOneWay)
                ++unknown;
            else if (ref.find(from, xid))
                ++held;
            else
                ++nulls;
        }
        heldInitiators = std::max(heldInitiators, ref.initiators());
    }
    // The mix reached every answer, and the log held many initiators.
    EXPECT_GT(fresh, 0u);
    EXPECT_GT(dups, 0u);
    EXPECT_GT(held, 0u);
    EXPECT_GT(nulls, 0u);
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(unknown, 0u);
    EXPECT_GE(heldInitiators, 40u);
}

TEST(ServedLog, MatchesSortedVectorReferenceDepth1)
{
    for (std::uint64_t seed : {1u, 2u})
        runServedLogDifferential(1, seed);
}

TEST(ServedLog, MatchesSortedVectorReferenceDepth2)
{
    for (std::uint64_t seed : {1u, 2u})
        runServedLogDifferential(2, seed);
}

TEST(ServedLog, MatchesSortedVectorReferenceDepth8)
{
    for (std::uint64_t seed : {1u, 2u})
        runServedLogDifferential(8, seed);
}

} // namespace
