/**
 * @file
 * Tests for dynamic timing (exponential back-off) and partner
 * selection (neighbor rotation + randomized pairing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "coin/backoff.hpp"
#include "coin/neighborhood.hpp"
#include "coin/pairing.hpp"
#include "sim/rng.hpp"
#include "soc/config.hpp"

namespace {

using namespace blitz;
using coin::BackoffConfig;
using coin::BackoffTimer;
using coin::PairingConfig;
using coin::PartnerSelector;

/** A shared member list, as managedNeighborhoods hands out. */
PartnerSelector::Members
members(std::vector<noc::NodeId> ids)
{
    return std::make_shared<const std::vector<noc::NodeId>>(
        std::move(ids));
}

// -------------------------------------------------------------- backoff

TEST(Backoff, StartsAtBaseInterval)
{
    BackoffConfig cfg;
    cfg.baseInterval = 32;
    BackoffTimer t(cfg);
    EXPECT_EQ(t.interval(), 32u);
}

TEST(Backoff, GrowsByLambdaOnIdleExchange)
{
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.lambda = 2.0;
    cfg.maxInterval = 100;
    BackoffTimer t(cfg);
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 32u);
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 64u);
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 100u); // clamped at max
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 100u);
}

TEST(Backoff, ShrinksOnCoinMovement)
{
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.k = 4;
    cfg.minInterval = 8;
    BackoffTimer t(cfg);
    t.onExchange(true);
    EXPECT_EQ(t.interval(), 12u);
    t.onExchange(true);
    EXPECT_EQ(t.interval(), 8u); // floor
    t.onExchange(true);
    EXPECT_EQ(t.interval(), 8u);
}

TEST(Backoff, MovementSnapsBackedOffTimerToBase)
{
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.lambda = 2.0;
    cfg.k = 4;
    cfg.maxInterval = 2048;
    BackoffTimer t(cfg);
    for (int i = 0; i < 10; ++i)
        t.onExchange(false);
    EXPECT_EQ(t.interval(), 2048u);
    t.onExchange(true);
    EXPECT_LE(t.interval(), 16u); // snapped to (below) base
}

TEST(Backoff, ResetOnActivityRestoresBase)
{
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    BackoffTimer t(cfg);
    for (int i = 0; i < 5; ++i)
        t.onExchange(false);
    t.resetOnActivity();
    EXPECT_EQ(t.interval(), 16u);
}

TEST(Backoff, DisabledTimerNeverMoves)
{
    BackoffConfig cfg;
    cfg.enabled = false;
    cfg.baseInterval = 24;
    BackoffTimer t(cfg);
    t.onExchange(false);
    t.onExchange(true);
    EXPECT_EQ(t.interval(), 24u);
}

TEST(Backoff, DiscontentCapsInterval)
{
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.discontentCap = 64;
    BackoffTimer t(cfg);
    for (int i = 0; i < 10; ++i)
        t.onExchange(false);
    EXPECT_GT(t.interval(), 64u);
    EXPECT_EQ(t.intervalFor(true), 64u);
    EXPECT_EQ(t.intervalFor(false), t.interval());
}

TEST(Backoff, DiscontentCapIsInactiveBelowTheCeiling)
{
    // The cap is a ceiling, not a target: while the interval is still
    // short, a discontent tile keeps its own cadence.
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.discontentCap = 64;
    BackoffTimer t(cfg);
    EXPECT_EQ(t.intervalFor(true), 16u);
    t.onExchange(false); // 32, still under the cap
    EXPECT_EQ(t.intervalFor(true), 32u);
    EXPECT_EQ(t.intervalFor(false), 32u);
}

TEST(Backoff, DiscontentCapDoesNotMutateTheInterval)
{
    // intervalFor() is a read-side clamp; the stored interval keeps
    // its backed-off value so a content tile resumes where it was.
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.discontentCap = 64;
    cfg.maxInterval = 2048;
    BackoffTimer t(cfg);
    for (int i = 0; i < 10; ++i)
        t.onExchange(false);
    ASSERT_EQ(t.interval(), 2048u);
    EXPECT_EQ(t.intervalFor(true), 64u);
    EXPECT_EQ(t.interval(), 2048u); // unchanged by the query
    EXPECT_EQ(t.intervalFor(false), 2048u);
}

TEST(Backoff, SnapFromMaxIntervalLandsAtBaseMinusShrink)
{
    // From a fully backed-off state, one coin movement must snap the
    // timer to the base cadence and then apply the k shrink — not
    // walk down from maxInterval k at a time.
    BackoffConfig cfg;
    cfg.baseInterval = 32;
    cfg.lambda = 2.0;
    cfg.k = 8;
    cfg.minInterval = 8;
    cfg.maxInterval = 2048;
    BackoffTimer t(cfg);
    for (int i = 0; i < 12; ++i)
        t.onExchange(false);
    ASSERT_EQ(t.interval(), 2048u);
    t.onExchange(true);
    // snap to base (32), then 32 > k + min = 16, so shrink to 24.
    EXPECT_EQ(t.interval(), 24u);
}

TEST(Backoff, SnapShortCircuitsToMinWhenBaseIsWithinShrink)
{
    // With base <= k + min the snapped interval cannot shed a full k
    // without breaching the floor; it must land exactly on min.
    BackoffConfig cfg;
    cfg.baseInterval = 16;
    cfg.k = 8;
    cfg.minInterval = 8;
    cfg.maxInterval = 2048;
    BackoffTimer t(cfg);
    for (int i = 0; i < 10; ++i)
        t.onExchange(false);
    ASSERT_EQ(t.interval(), 2048u);
    t.onExchange(true);
    EXPECT_EQ(t.interval(), 8u);
}

TEST(Backoff, SnapDoesNotLiftAShortInterval)
{
    // A timer already below base stays below base on movement; the
    // snap is min(interval, base), never a raise.
    BackoffConfig cfg;
    cfg.baseInterval = 32;
    cfg.k = 4;
    cfg.minInterval = 8;
    BackoffTimer t(cfg);
    t.onExchange(true); // 32 -> 28
    t.onExchange(true); // 28 -> 24
    ASSERT_EQ(t.interval(), 24u);
    t.onExchange(true);
    EXPECT_EQ(t.interval(), 20u); // not re-snapped up to 32
}

TEST(Backoff, UnitLambdaStillGrowsByTheFloor)
{
    // The interval_ + 1 floor guarantees progress even when the
    // multiplicative growth rounds to no change at all (lambda = 1).
    BackoffConfig cfg;
    cfg.baseInterval = 10;
    cfg.lambda = 1.0;
    cfg.maxInterval = 14;
    BackoffTimer t(cfg);
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 11u);
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 12u);
    t.onExchange(false);
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 14u); // clamped at max
    t.onExchange(false);
    EXPECT_EQ(t.interval(), 14u);
}

TEST(Backoff, GrowthAlwaysMakesProgress)
{
    // Even with lambda very close to 1, the interval must strictly
    // grow (rounding must not pin it).
    BackoffConfig cfg;
    cfg.baseInterval = 10;
    cfg.lambda = 1.01;
    BackoffTimer t(cfg);
    sim::Tick prev = t.interval();
    for (int i = 0; i < 20; ++i) {
        t.onExchange(false);
        EXPECT_GT(t.interval(), prev);
        prev = t.interval();
    }
}

TEST(Backoff, InvalidConfigPanics)
{
    BackoffConfig bad;
    bad.minInterval = 0;
    EXPECT_THROW(BackoffTimer{bad}, sim::PanicError);
    BackoffConfig bad2;
    bad2.lambda = 0.5;
    EXPECT_THROW(BackoffTimer{bad2}, sim::PanicError);
}

// -------------------------------------------------------------- pairing

TEST(Pairing, RotatesThroughAllNeighbors)
{
    noc::Topology topo(4, 4, true);
    sim::Rng rng(1);
    PairingConfig cfg;
    cfg.randomPairing = false;
    PartnerSelector sel(topo, 5, cfg, rng);

    std::set<noc::NodeId> seen;
    for (int i = 0; i < 4; ++i)
        seen.insert(sel.next());
    auto expected = topo.neighbors(5);
    EXPECT_EQ(seen.size(), expected.size());
    for (noc::NodeId n : expected)
        EXPECT_TRUE(seen.count(n)) << "neighbor " << n << " skipped";
}

TEST(Pairing, RandomPairingEveryPeriod)
{
    noc::Topology topo(5, 5, true);
    sim::Rng rng(2);
    PairingConfig cfg;
    cfg.randomPairing = true;
    cfg.period = 16;
    PartnerSelector sel(topo, 12, cfg, rng);

    int far_count = 0;
    for (int i = 1; i <= 160; ++i) {
        sel.next();
        if (sel.lastWasRandom()) {
            ++far_count;
            EXPECT_EQ(i % 16, 0) << "random pairing off-schedule";
        }
    }
    EXPECT_EQ(far_count, 10);
}

TEST(Pairing, RandomPartnersAreNonNeighbors)
{
    noc::Topology topo(5, 5, true);
    sim::Rng rng(3);
    PairingConfig cfg;
    cfg.period = 4;
    PartnerSelector sel(topo, 12, cfg, rng);
    auto neighbors = topo.neighbors(12);

    for (int i = 0; i < 200; ++i) {
        noc::NodeId p = sel.next();
        EXPECT_NE(p, 12u);
        if (sel.lastWasRandom()) {
            EXPECT_EQ(std::find(neighbors.begin(), neighbors.end(), p),
                      neighbors.end());
        }
    }
}

TEST(Pairing, LfsrWalkCoversAllNonNeighbors)
{
    // The hardware guarantee (Section III-E): the shift register pairs
    // every non-neighbor within a fixed time.
    noc::Topology topo(4, 4, true);
    sim::Rng rng(4);
    PairingConfig cfg;
    cfg.period = 2; // every other exchange is far, for test speed
    cfg.mode = coin::PairingMode::Lfsr;
    PartnerSelector sel(topo, 0, cfg, rng);

    const std::size_t far_total =
        topo.size() - 1 - topo.neighbors(0).size();
    std::set<noc::NodeId> far_seen;
    for (std::size_t i = 0; i < 4 * far_total; ++i) {
        noc::NodeId p = sel.next();
        if (sel.lastWasRandom())
            far_seen.insert(p);
    }
    EXPECT_EQ(far_seen.size(), far_total);
}

TEST(Pairing, UniformModeStaysLegal)
{
    noc::Topology topo(4, 4, true);
    sim::Rng rng(5);
    PairingConfig cfg;
    cfg.period = 3;
    cfg.mode = coin::PairingMode::Uniform;
    PartnerSelector sel(topo, 7, cfg, rng);
    for (int i = 0; i < 100; ++i) {
        noc::NodeId p = sel.next();
        EXPECT_NE(p, 7u);
        EXPECT_LT(p, topo.size());
    }
}

TEST(Pairing, ExplicitListsConstructor)
{
    sim::Rng rng(6);
    PairingConfig cfg;
    cfg.period = 4;
    PartnerSelector sel({10u, 20u}, members({10u, 20u, 30u, 40u}), 0,
                        cfg, rng);
    std::set<noc::NodeId> near, far;
    for (int i = 0; i < 40; ++i) {
        noc::NodeId p = sel.next();
        (sel.lastWasRandom() ? far : near).insert(p);
    }
    EXPECT_EQ(near, (std::set<noc::NodeId>{10u, 20u}));
    EXPECT_EQ(far, (std::set<noc::NodeId>{30u, 40u}));
}

TEST(Pairing, ExplicitListsWithoutRandomPairing)
{
    sim::Rng rng(7);
    PairingConfig cfg;
    cfg.randomPairing = false;
    PartnerSelector sel({3u}, members({3u, 9u}), 0, cfg, rng);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(sel.next(), 3u);
        EXPECT_FALSE(sel.lastWasRandom());
    }
}

TEST(Pairing, EmptyNeighborListPanics)
{
    sim::Rng rng(8);
    PairingConfig cfg;
    EXPECT_THROW(PartnerSelector({}, members({1u}), 0, cfg, rng),
                 sim::PanicError);
}

TEST(Pairing, ForceFarOverridesPeriod)
{
    sim::Rng rng(9);
    PairingConfig cfg;
    cfg.period = 16;
    PartnerSelector sel({1u, 2u}, members({1u, 2u, 8u, 9u}), 0, cfg,
                        rng);
    for (int i = 0; i < 10; ++i) {
        noc::NodeId p = sel.next(/*forceFar=*/true);
        EXPECT_TRUE(p == 8u || p == 9u);
        EXPECT_TRUE(sel.lastWasRandom());
    }
}

TEST(Pairing, ForceFarWithoutFarListFallsBack)
{
    sim::Rng rng(10);
    PairingConfig cfg;
    PartnerSelector sel({3u}, members({3u}), 0, cfg, rng);
    EXPECT_EQ(sel.next(/*forceFar=*/true), 3u);
    EXPECT_FALSE(sel.lastWasRandom());
}

// ------------------------------------- generated vs materialized far list

/**
 * The selector as it was when every tile stored its non-neighbors: an
 * explicit far list, walked by index (Lfsr) or drawn from (Uniform),
 * and rebuilt from stripped copies on shun. The generated sequence
 * must match it draw for draw.
 */
struct MaterializedSelector
{
    PairingConfig cfg;
    sim::Rng *rng;
    std::vector<noc::NodeId> neighbors;
    std::vector<noc::NodeId> far;
    std::size_t rotate = 0;
    std::size_t farPos = 0;
    unsigned exchangeCount = 0;
    bool lastWasRandom = false;

    MaterializedSelector(std::vector<noc::NodeId> n,
                         std::vector<noc::NodeId> f,
                         const PairingConfig &c, sim::Rng &r)
        : cfg(c), rng(&r), neighbors(std::move(n)), far(std::move(f))
    {
        if (!cfg.randomPairing)
            far.clear();
        if (!far.empty())
            farPos = rng->below(far.size());
        rotate = rng->below(neighbors.size());
    }

    noc::NodeId
    next(bool forceFar)
    {
        ++exchangeCount;
        if (!far.empty() &&
            (forceFar ||
             (cfg.randomPairing && exchangeCount % cfg.period == 0))) {
            lastWasRandom = true;
            if (cfg.mode == coin::PairingMode::Uniform)
                return far[rng->below(far.size())];
            noc::NodeId p = far[farPos];
            farPos = (farPos + 1) % far.size();
            return p;
        }
        lastWasRandom = false;
        noc::NodeId p = neighbors[rotate];
        rotate = (rotate + 1) % neighbors.size();
        return p;
    }

    void
    shun(noc::NodeId node)
    {
        auto strip = [node](std::vector<noc::NodeId> v) {
            v.erase(std::remove(v.begin(), v.end(), node), v.end());
            return v;
        };
        std::vector<noc::NodeId> n = strip(neighbors);
        std::vector<noc::NodeId> f = strip(far);
        if (n.empty() && !f.empty()) {
            n = std::move(f);
            f.clear();
        }
        if (n.empty())
            return;
        *this = MaterializedSelector(std::move(n), std::move(f), cfg,
                                     *rng);
    }
};

/** Members minus @p self minus @p neighbors, in member order. */
std::vector<noc::NodeId>
materializeFar(const std::vector<noc::NodeId> &memberIds,
               noc::NodeId self,
               const std::vector<noc::NodeId> &neighbors)
{
    std::vector<noc::NodeId> far;
    for (noc::NodeId m : memberIds) {
        if (m != self && std::find(neighbors.begin(), neighbors.end(),
                                   m) == neighbors.end())
            far.push_back(m);
    }
    return far;
}

/**
 * Drive both selectors 4 x (far partner count) calls (at least 64, so
 * the rotation is covered when there is no far partner) with a forced
 * far pick now and then, and require identical partners. A forced
 * pick falls back to the rotation when no far partner is left, so the
 * far sets must agree too.
 */
void
expectSameSequence(PartnerSelector &sel, MaterializedSelector &ref,
                   const std::string &what)
{
    ASSERT_EQ(sel.neighbors(), ref.neighbors) << what;
    const std::size_t calls =
        std::max<std::size_t>(4 * ref.far.size(), 64);
    for (std::size_t i = 0; i < calls; ++i) {
        const bool force = i % 7 == 3;
        ASSERT_EQ(sel.next(force), ref.next(force))
            << what << " call " << i;
        ASSERT_EQ(sel.lastWasRandom(), ref.lastWasRandom)
            << what << " call " << i;
    }
}

std::vector<noc::NodeId>
allNodes(std::size_t n)
{
    std::vector<noc::NodeId> ids(n);
    for (std::size_t i = 0; i < n; ++i)
        ids[i] = static_cast<noc::NodeId>(i);
    return ids;
}

constexpr coin::PairingMode kModes[] = {coin::PairingMode::Lfsr,
                                        coin::PairingMode::Uniform};

TEST(PairingEquivalence, MeshMatchesMaterializedList)
{
    for (int side : {4, 6}) {
        for (bool wrap : {false, true}) {
            noc::Topology topo(side, side, wrap);
            const auto ids = allNodes(topo.size());
            for (coin::PairingMode mode : kModes) {
                PairingConfig cfg;
                cfg.period = 3;
                cfg.mode = mode;
                for (noc::NodeId self = 0; self < topo.size(); ++self) {
                    sim::Rng a(100 + self), b(100 + self);
                    PartnerSelector sel(topo, self, cfg, a);
                    auto n = topo.neighbors(self);
                    MaterializedSelector ref(
                        n, materializeFar(ids, self, n), cfg, b);
                    expectSameSequence(
                        sel, ref,
                        std::to_string(side) + (wrap ? "t" : "m") +
                            " tile " + std::to_string(self));
                }
            }
        }
    }
}

/** Every managed tile of @p managed against the materialized list. */
void
expectManagedMatches(const noc::Topology &topo,
                     const std::vector<bool> &managed)
{
    auto hoods = coin::managedNeighborhoods(topo, managed);
    for (coin::PairingMode mode : kModes) {
        PairingConfig cfg;
        cfg.period = 2;
        cfg.mode = mode;
        for (noc::NodeId self = 0; self < topo.size(); ++self) {
            if (!managed[self])
                continue;
            const coin::Neighborhood &h = hoods[self];
            ASSERT_NE(h.members, nullptr);
            sim::Rng a(7 + self), b(7 + self);
            PartnerSelector sel(h.neighbors, h.members, self, cfg, a);
            MaterializedSelector ref(
                h.neighbors,
                materializeFar(*h.members, self, h.neighbors), cfg, b);
            expectSameSequence(sel, ref,
                               "managed tile " + std::to_string(self));
        }
    }
}

TEST(PairingEquivalence, NearestFallbackSubsetMatches)
{
    // The 3x3 diagonal shares no row or column, so every tile takes
    // the nearest-fallback neighbors.
    noc::Topology topo(3, 3, false);
    std::vector<bool> managed(9, false);
    for (noc::NodeId id : {0u, 4u, 8u})
        managed[id] = true;
    expectManagedMatches(topo, managed);
}

TEST(PairingEquivalence, SiliconPmClusterMatches)
{
    soc::SocConfig cfg = soc::make6x6SiliconSoc();
    noc::Topology topo(cfg.width, cfg.height, false);
    std::vector<bool> managed(cfg.size(), false);
    for (noc::NodeId id : cfg.managedAccelerators())
        managed[id] = true;
    expectManagedMatches(topo, managed);
}

TEST(PairingEquivalence, ShunMatchesStrippedLists)
{
    // Shun a far node, then one neighbor, then every remaining
    // neighbor (the last forces the far-to-neighbor promotion), then
    // a promoted partner; the sequences must agree after each step.
    noc::Topology topo(6, 6, false);
    const auto ids = allNodes(topo.size());
    for (coin::PairingMode mode : kModes) {
        for (noc::NodeId self : {0u, 14u}) {
            PairingConfig cfg;
            cfg.period = 3;
            cfg.mode = mode;
            sim::Rng a(55 + self), b(55 + self);
            PartnerSelector sel(topo, self, cfg, a);
            auto n = topo.neighbors(self);
            MaterializedSelector ref(n, materializeFar(ids, self, n),
                                     cfg, b);
            const std::string tag = "tile " + std::to_string(self);
            expectSameSequence(sel, ref, tag);

            const noc::NodeId farNode = self == 0 ? 35u : 0u;
            EXPECT_TRUE(sel.shun(farNode));
            ref.shun(farNode);
            expectSameSequence(sel, ref, tag + " far shunned");

            for (noc::NodeId victim : n) {
                EXPECT_TRUE(sel.shun(victim));
                ref.shun(victim);
                expectSameSequence(sel, ref, tag + " neighbor " +
                                                 std::to_string(victim));
            }
            EXPECT_EQ(sel.neighbors().size(), topo.size() - 2 - n.size());

            const noc::NodeId promoted = sel.neighbors()[1];
            EXPECT_TRUE(sel.shun(promoted));
            ref.shun(promoted);
            expectSameSequence(sel, ref, tag + " promoted shunned");
        }
    }
}

TEST(PairingEquivalence, ShunInManagedClusterMatches)
{
    soc::SocConfig soc = soc::make6x6SiliconSoc();
    noc::Topology topo(soc.width, soc.height, false);
    std::vector<bool> managed(soc.size(), false);
    for (noc::NodeId id : soc.managedAccelerators())
        managed[id] = true;
    auto hoods = coin::managedNeighborhoods(topo, managed);
    const noc::NodeId self = soc.managedAccelerators().front();
    const coin::Neighborhood &h = hoods[self];
    const noc::NodeId unmanaged = static_cast<noc::NodeId>(
        std::find(managed.begin(), managed.end(), false) -
        managed.begin());
    for (coin::PairingMode mode : kModes) {
        PairingConfig cfg;
        cfg.period = 2;
        cfg.mode = mode;
        sim::Rng a(3), b(3);
        PartnerSelector sel(h.neighbors, h.members, self, cfg, a);
        MaterializedSelector ref(
            h.neighbors, materializeFar(*h.members, self, h.neighbors),
            cfg, b);
        // Unmanaged and already-absent nodes still restart the walk.
        for (noc::NodeId victim : {unmanaged, h.neighbors.front(),
                                   h.neighbors.front()}) {
            EXPECT_TRUE(sel.shun(victim));
            ref.shun(victim);
            expectSameSequence(sel, ref,
                               "victim " + std::to_string(victim));
        }
        for (noc::NodeId victim : h.neighbors) {
            EXPECT_TRUE(sel.shun(victim));
            ref.shun(victim);
            expectSameSequence(sel, ref,
                               "victim " + std::to_string(victim));
        }
    }
}

TEST(PairingEquivalence, FullyCutOffShunKeepsSelector)
{
    // Without random pairing there is nothing to promote: shunning
    // the only neighbor leaves the selector exactly as it was.
    PairingConfig cfg;
    cfg.randomPairing = false;
    sim::Rng a(11), b(11);
    PartnerSelector sel({3u}, members({3u, 5u, 9u}), 5, cfg, a);
    MaterializedSelector ref({3u}, {9u}, cfg, b);
    EXPECT_FALSE(sel.shun(3u));
    ref.shun(3u);
    expectSameSequence(sel, ref, "cut off");
}

// ---------------------------------------------------------- isolation

TEST(Isolation, TriggersAfterIdleStreak)
{
    coin::IsolationDetector iso(4);
    for (int i = 0; i < 3; ++i) {
        iso.onExchange(/*moved=*/false, /*partnerMax=*/0);
        EXPECT_FALSE(iso.isolated());
    }
    iso.onExchange(false, 0);
    EXPECT_TRUE(iso.isolated());
}

TEST(Isolation, CoinMovementClearsStreak)
{
    coin::IsolationDetector iso(4);
    for (int i = 0; i < 3; ++i)
        iso.onExchange(false, 0);
    iso.onExchange(/*moved=*/true, 0);
    EXPECT_FALSE(iso.isolated());
    for (int i = 0; i < 3; ++i)
        iso.onExchange(false, 0);
    EXPECT_FALSE(iso.isolated());
}

TEST(Isolation, ActiveBalancedPartnerClearsStreak)
{
    // A zero-move exchange with an *active* partner is evidence the
    // distribution is fine, not that the tile is stranded.
    coin::IsolationDetector iso(4);
    for (int i = 0; i < 3; ++i)
        iso.onExchange(false, 0);
    iso.onExchange(false, /*partnerMax=*/16);
    EXPECT_FALSE(iso.isolated());
}

} // namespace
