/**
 * @file
 * Byzantine-adversary and integrity-guardian tests.
 *
 * Attack side: each ByzantineBehavior measurably breaks the economy
 * when nothing defends it (counterfeit coins survive, payouts are
 * refused, stale updates are re-injected). Defense side: the guardian
 * detects every behavior from neighbor-local evidence alone, walks the
 * warn -> throttle -> quarantine ladder, and the audit watchdog
 * reclaims the fenced coins so the budget is conserved within the
 * configured leak bound. An honest mesh under heavy *benign* faults
 * must never trip a single escalation (the false-positive gate).
 *
 * Every suite name starts with "Byzantine" so the tsan preset's name
 * filter picks the whole file up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>

#include "fault/chaos.hpp"
#include "record/recorder.hpp"

namespace {

using namespace blitz;
using fault::ByzantineBehavior;
using fault::ByzantineSpec;
using fault::ChaosCluster;
using fault::ChaosConfig;

/**
 * Heterogeneous demand (8/16/32 by tile), whole pool parked on the
 * first quarter — the fig01/chaos seeding, so convergence requires
 * long-range transport past any compromised tile.
 */
coin::Coins
seedMesh(ChaosCluster &c)
{
    const std::size_t n = c.size();
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        coin::Coins m = 8 << (i % 3);
        c.setMax(i, m);
        demand += m;
    }
    const coin::Coins pool = demand / 2;
    const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
    for (std::size_t i = 0; i < quarter; ++i) {
        coin::Coins share = pool / static_cast<coin::Coins>(quarter);
        if (i < static_cast<std::size_t>(
                    pool % static_cast<coin::Coins>(quarter)))
            ++share;
        c.setHas(i, share);
    }
    c.sealProvision();
    c.startAll();
    return pool;
}

/** 4x4 config with one compromised tile; guardian optional. */
ChaosConfig
attackConfig(const ByzantineSpec &spec, bool guardian)
{
    ChaosConfig cc;
    cc.width = 4;
    cc.height = 4;
    cc.seedBase = 77;
    cc.byzantine.specs.push_back(spec);
    if (guardian) {
        cc.guardianEnabled = true;
        cc.auditPeriod = 4096;
    }
    return cc;
}

/** Stop initiation everywhere and drain in-flight traffic. */
void
drain(ChaosCluster &c, sim::Tick ticks = 20'000)
{
    for (std::size_t i = 0; i < c.size(); ++i)
        c.unit(i).stop();
    c.eq().runUntil(c.eq().now() + ticks);
}

// ------------------------------------------------- undefended attacks

TEST(ByzantineAttack, InflatorOverdrawsExactlyWithoutGuardian)
{
    // No guardian, no audit: every counterfeit coin survives, and the
    // cluster total exceeds the seeded pool by exactly the mint count.
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::Inflator;
    spec.amount = 8;
    spec.period = 512;
    ChaosCluster c(attackConfig(spec, /*guardian=*/false));
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(60'000);
    drain(c);

    ASSERT_NE(c.byzantinePlan(), nullptr);
    const auto st = c.byzantinePlan()->stats();
    EXPECT_GT(st.pulses, 0u);
    EXPECT_EQ(st.counterfeited,
              static_cast<coin::Coins>(st.pulses) * spec.amount);
    EXPECT_EQ(c.totalCoins(), pool + st.counterfeited)
        << "counterfeit coins leaked or vanished untracked";
}

TEST(ByzantineAttack, ReplyForgerSkimsExactlyWithoutGuardian)
{
    // Forged replies apply more locally than they report back; each
    // forgery mints `amount` coins into the forger's counter.
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::ReplyForger;
    spec.amount = 4;
    ChaosCluster c(attackConfig(spec, /*guardian=*/false));
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(60'000);
    drain(c);

    const auto st = c.byzantinePlan()->stats();
    EXPECT_GT(st.forgedReplies, 0u);
    EXPECT_EQ(st.counterfeited,
              static_cast<coin::Coins>(st.forgedReplies) * spec.amount);
    EXPECT_EQ(c.totalCoins(), pool + st.counterfeited);
}

TEST(ByzantineAttack, StuckGreedyStarvesTheHonestTilesWithoutGuardian)
{
    // The hoarder claims desperation and refuses every payout: coins
    // pile up on it and the honest tiles run under their fair share.
    ByzantineSpec spec;
    spec.node = 1; // inside the coin-rich first quarter
    spec.behavior = ByzantineBehavior::StuckGreedy;
    ChaosCluster c(attackConfig(spec, /*guardian=*/false));
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(60'000);
    drain(c);

    const auto st = c.byzantinePlan()->stats();
    EXPECT_GT(st.refusedPayouts, 0u);
    EXPECT_GT(st.lyingStatuses, 0u);
    EXPECT_EQ(c.totalCoins(), pool) << "hoarding must not mint";
    // Fair share at alpha = 1/2 for max = 16 is 8; the hoarder must
    // have drawn well past it while honest tiles starve.
    EXPECT_GT(c.unit(1).has(), 16);
}

// --------------------------------------------- detection + quarantine

TEST(ByzantineGuardian, InflatorIsQuarantinedAndBudgetReclaimed)
{
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::Inflator;
    spec.amount = 8;
    spec.period = 512;
    ChaosCluster c(attackConfig(spec, /*guardian=*/true));
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(120'000);

    ASSERT_NE(c.guardian(), nullptr);
    EXPECT_EQ(c.guardian()->health(5),
              blitzcoin::TileHealth::Quarantined);
    EXPECT_TRUE(c.unit(5).quarantined());
    EXPECT_EQ(c.guardian()->quarantines(), 1u);
    EXPECT_GT(c.guardian()->detections(), 0u);
    // Neighbors re-formed the exchange mesh around the hole.
    EXPECT_TRUE(c.unit(1).isShunned(5));
    EXPECT_TRUE(c.unit(4).isShunned(5));
    EXPECT_TRUE(c.unit(6).isShunned(5));
    EXPECT_TRUE(c.unit(9).isShunned(5));
    // The driver stops permanently on quarantine: the mint counter
    // must be frozen from here on.
    const auto minted = c.byzantinePlan()->stats().counterfeited;
    c.eq().runUntil(c.eq().now() + 20'000);
    EXPECT_EQ(c.byzantinePlan()->stats().counterfeited, minted);

    // Budget: fenced coins were reminted to the honest tiles; within
    // the leak bound while running, exact after a final sweep.
    const coin::Coins leak = c.guardian()->config().leakBound;
    EXPECT_LE(std::abs(c.totalCoins() - pool), leak);
    drain(c);
    c.reconcile();
    EXPECT_EQ(c.totalCoins(), pool);
}

TEST(ByzantineGuardian, ReplyForgerIsCaughtByConservationBooks)
{
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::ReplyForger;
    spec.amount = 4;
    ChaosCluster c(attackConfig(spec, /*guardian=*/true));
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(120'000);

    EXPECT_EQ(c.guardian()->health(5),
              blitzcoin::TileHealth::Quarantined);
    // The forger's lies pollute its victims' books (its sentry
    // overstates what they gained), so its neighbors ride the same
    // strike timeline it does. The one-conviction-per-sweep rule plus
    // the amnesty that vacates the convicted liar's testimony must
    // leave every honest tile fully healthy.
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i == 5)
            continue;
        EXPECT_EQ(c.guardian()->health(static_cast<noc::NodeId>(i)),
                  blitzcoin::TileHealth::Healthy)
            << "honest tile " << i;
    }
    drain(c);
    c.reconcile();
    EXPECT_EQ(c.totalCoins(), pool);
}

TEST(ByzantineGuardian, SpammerIsThrottledThenQuarantined)
{
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::Spammer;
    spec.claimMax = 63;
    ChaosCluster c(attackConfig(spec, /*guardian=*/true));
    seedMesh(c);
    c.eq().runUntil(120'000);

    // The ladder passed through throttle on the way to quarantine, and
    // the throttle visibly dropped serves while it was in force.
    EXPECT_GE(c.guardian()->throttles(), 1u);
    EXPECT_EQ(c.guardian()->health(5),
              blitzcoin::TileHealth::Quarantined);
    std::uint64_t throttledDrops = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
        throttledDrops += c.unit(i).throttledDrops();
    EXPECT_GT(throttledDrops, 0u)
        << "throttle escalation never dropped a serve";
    EXPECT_GT(c.byzantinePlan()->stats().lyingStatuses, 0u);
}

TEST(ByzantineGuardian, StuckGreedyHoarderIsQuarantined)
{
    ByzantineSpec spec;
    spec.node = 1;
    spec.behavior = ByzantineBehavior::StuckGreedy;
    ChaosCluster c(attackConfig(spec, /*guardian=*/true));
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(120'000);

    EXPECT_EQ(c.guardian()->health(1),
              blitzcoin::TileHealth::Quarantined);
    EXPECT_GT(c.byzantinePlan()->stats().refusedPayouts, 0u);
    // The hoard was fenced and reminted: the honest economy holds the
    // full pool again.
    drain(c);
    c.reconcile();
    EXPECT_EQ(c.totalCoins(), pool);
}

TEST(ByzantineGuardian, StaleReplayerIsQuarantined)
{
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::StaleReplayer;
    spec.period = 256;
    ChaosCluster c(attackConfig(spec, /*guardian=*/true));
    seedMesh(c);
    c.eq().runUntil(120'000);

    const auto st = c.byzantinePlan()->stats();
    EXPECT_GT(st.staleReplays, 0u);
    EXPECT_EQ(c.guardian()->health(5),
              blitzcoin::TileHealth::Quarantined);
    // Every replay bounced off the sequence stamps (no delta was ever
    // re-applied) — the victims only *counted* them.
    std::uint64_t stale = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
        if (i != 5)
            stale += c.unit(i).duplicatesIgnored();
    EXPECT_GT(stale, 0u);
}

TEST(ByzantineGuardian, QuarantineIsStickyAcrossCrashAndRestart)
{
    // A power cycle must not launder a quarantined tile back into the
    // economy: the verdict survives crash() and blocks start().
    ByzantineSpec spec;
    spec.node = 5;
    spec.behavior = ByzantineBehavior::Inflator;
    spec.amount = 8;
    spec.period = 512;
    ChaosConfig cc = attackConfig(spec, /*guardian=*/true);
    cc.fault.outages.push_back({5, 60'000, 70'000, /*freeze=*/false});
    ChaosCluster c(cc);
    const coin::Coins pool = seedMesh(c);

    c.eq().runUntil(50'000);
    ASSERT_EQ(c.guardian()->health(5),
              blitzcoin::TileHealth::Quarantined)
        << "attacker not yet quarantined before its crash window";
    c.eq().runUntil(120'000);
    EXPECT_TRUE(c.unit(5).quarantined());
    EXPECT_EQ(c.guardian()->quarantines(), 1u);
    drain(c);
    c.reconcile();
    EXPECT_EQ(c.totalCoins(), pool);
}

// ----------------------------------------------- false-positive gate

TEST(ByzantineGuardian, HonestMeshUnderBenignFaultsRaisesNoEscalation)
{
    // Drops, a crash window, and a partition — every benign fault the
    // protocol is built to absorb — with the guardian armed: not one
    // warn, throttle, or quarantine may fire. This is the gate that
    // keeps the detector thresholds honest.
    ChaosConfig cc;
    cc.width = 4;
    cc.height = 4;
    cc.seedBase = 77;
    cc.guardianEnabled = true;
    cc.auditPeriod = 4096;
    cc.fault.seed = 424242;
    cc.fault.coinTrafficOnly = true;
    cc.fault.base.drop = 0.05;
    cc.fault.outages.push_back({5, 3'000, 12'000, /*freeze=*/false});
    noc::Topology topo(4, 4, false);
    cc.fault.partitions.push_back(
        fault::columnPartition(topo, 1, 20'000, 32'000));
    ChaosCluster c(cc);
    const coin::Coins pool = seedMesh(c);
    c.eq().runUntil(150'000);

    EXPECT_EQ(c.guardian()->quarantines(), 0u);
    EXPECT_EQ(c.guardian()->throttles(), 0u);
    EXPECT_EQ(c.guardian()->warnings(), 0u);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c.guardian()->health(static_cast<noc::NodeId>(i)),
                  blitzcoin::TileHealth::Healthy)
            << "tile " << i;
    auto report = c.quiesce(65'536);
    (void)report;
    EXPECT_EQ(c.totalCoins(), pool);
}

// ------------------------------------------------ unit-level semantics

TEST(ByzantineUnit, ShunnedNeighborPacketsAreDroppedAtTheDemux)
{
    ChaosConfig cc;
    cc.width = 2;
    cc.height = 2;
    cc.seedBase = 77;
    ChaosCluster c(cc);
    for (std::size_t i = 0; i < 4; ++i)
        c.setMax(i, 8);
    c.setHas(0, 16);
    c.sealProvision();
    // Units 1 and 2 (node 0's mesh neighbors) cut it off before any
    // packet flows; 3 keeps listening.
    c.unit(1).shun(0);
    c.unit(2).shun(0);
    c.startAll();
    c.eq().runUntil(40'000);

    EXPECT_TRUE(c.unit(1).isShunned(0));
    EXPECT_TRUE(c.unit(2).isShunned(0));
    EXPECT_FALSE(c.unit(3).isShunned(0));
    EXPECT_GT(c.unit(1).shunnedDrops() + c.unit(2).shunnedDrops(), 0u)
        << "the shunned tile's packets were never dropped";
    // Node 0 can only reach node 3 via multi-hop XY routing; its
    // direct exchanges with 1 and 2 time out and resolve or abandon,
    // but the economy stays conserved.
    c.eq().runUntil(80'000);
    EXPECT_EQ(c.totalCoins(), 16);
}

TEST(ByzantineUnit, QuarantineFencesCoinsAndBlocksRestart)
{
    ChaosConfig cc;
    cc.width = 2;
    cc.height = 2;
    cc.seedBase = 77;
    ChaosCluster c(cc);
    for (std::size_t i = 0; i < 4; ++i)
        c.setMax(i, 8);
    c.setHas(0, 16);
    c.sealProvision();
    c.startAll();
    c.eq().runUntil(10'000);

    const coin::Coins fenced = c.unit(3).has();
    c.unit(3).quarantine();
    EXPECT_TRUE(c.unit(3).quarantined());
    EXPECT_EQ(c.unit(3).has(), fenced) << "quarantine must fence, not zero";
    // Sticky: a crash/restart cycle cannot bring it back.
    c.unit(3).crash();
    c.unit(3).restart();
    c.unit(3).start();
    EXPECT_TRUE(c.unit(3).quarantined());
    // totalCoins() excludes the fenced counter.
    c.eq().runUntil(20'000);
    EXPECT_LE(c.totalCoins(), 16);
}

// ------------------------------------------------------- acceptance

TEST(ByzantineGuardian, AcceptanceThreeAttackersOn6x6Converge)
{
    // The issue's acceptance scenario: a 6x6 mesh with an inflator, a
    // spammer, and a stuck-greedy hoarder, guardian enabled. All three
    // must be quarantined, the cluster must converge, the budget must
    // land within the leak bound, and every verdict must be journaled.
    ChaosConfig cc;
    cc.width = 6;
    cc.height = 6;
    cc.seedBase = 77;
    cc.guardianEnabled = true;
    cc.auditPeriod = 4096;
    ByzantineSpec inflator;
    inflator.node = 18;
    inflator.behavior = ByzantineBehavior::Inflator;
    inflator.amount = 8;
    inflator.period = 512;
    ByzantineSpec spammer;
    spammer.node = 1;
    spammer.behavior = ByzantineBehavior::Spammer;
    ByzantineSpec greedy;
    greedy.node = 2;
    greedy.behavior = ByzantineBehavior::StuckGreedy;
    cc.byzantine.specs = {inflator, spammer, greedy};
    ChaosCluster c(cc);
    record::FlightRecorder rec;
    c.attachRecorder(&rec);
    const coin::Coins pool = seedMesh(c);

    std::optional<sim::Tick> t =
        c.runUntilConverged(2.5, 64, 400'000);
    EXPECT_TRUE(t.has_value())
        << "cluster never converged with the attackers quarantined";

    for (noc::NodeId a : {18, 1, 2})
        EXPECT_EQ(c.guardian()->health(a),
                  blitzcoin::TileHealth::Quarantined)
            << "attacker " << static_cast<int>(a);
    EXPECT_EQ(c.guardian()->quarantines(), 3u);
    const coin::Coins leak = c.guardian()->config().leakBound;
    EXPECT_LE(std::abs(c.totalCoins() - pool), leak);

    // Every detection and escalation is on the flight-recorder log,
    // and the attack actions are journaled alongside them.
    std::size_t guardianRecords = 0, quarantineRecords = 0,
                byzantineRecords = 0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const record::Record &r = rec.at(i);
        if (r.kind == record::RecordKind::Guardian) {
            ++guardianRecords;
            if (r.flag == blitzcoin::kGuardianQuarantine)
                ++quarantineRecords;
        } else if (r.kind == record::RecordKind::Byzantine) {
            ++byzantineRecords;
        }
    }
    EXPECT_GE(guardianRecords,
              static_cast<std::size_t>(c.guardian()->detections()));
    EXPECT_EQ(quarantineRecords, 3u);
    EXPECT_GT(byzantineRecords, 0u);

    // Final books: fenced coins reclaimed, pool exactly restored.
    drain(c);
    c.reconcile();
    EXPECT_EQ(c.totalCoins(), pool);
}

} // namespace
