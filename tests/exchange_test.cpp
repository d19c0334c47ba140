/**
 * @file
 * Tests for the exchange arithmetic — the heart of BlitzCoin.
 *
 * Includes the two key property tests from the paper's analysis
 * (Section III-E): exchanges conserve coins exactly, and a pairwise
 * exchange never increases the global error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "coin/exchange.hpp"
#include "sim/rng.hpp"

namespace {

using namespace blitz;
using coin::Coins;
using coin::TileCoins;

// ------------------------------------------------------------ pairwise

TEST(Pairwise, Fig2Example)
{
    // The paper's running example: center tile at ratio 3:8 exchanging
    // with a neighbor. Verify a concrete rebalance: (3,8) vs (9,8):
    // total 12 over max 16 -> both should end at 6.
    TileCoins i{3, 8}, j{9, 8};
    Coins delta = coin::pairwiseDelta(i, j);
    EXPECT_EQ(delta, -3); // 3 coins flow j -> i
    EXPECT_EQ(i.has - delta, 6);
    EXPECT_EQ(j.has + delta, 6);
}

TEST(Pairwise, EqualizesRatios)
{
    TileCoins i{10, 10}, j{0, 30};
    Coins delta = coin::pairwiseDelta(i, j);
    // ratio 10/40 = 0.25 -> i keeps 2.5 -> rounds to 3 (half up),
    // j gets 7 (conservation).
    EXPECT_EQ(delta, 7);
}

TEST(Pairwise, BalancedPairMovesNothing)
{
    TileCoins i{5, 10}, j{15, 30};
    EXPECT_EQ(coin::pairwiseDelta(i, j), 0);
}

TEST(Pairwise, BothInactiveMovesNothing)
{
    TileCoins i{7, 0}, j{3, 0};
    EXPECT_EQ(coin::pairwiseDelta(i, j), 0);
}

TEST(Pairwise, InactiveTileRelinquishesAll)
{
    TileCoins idle{9, 0}, active{1, 20};
    EXPECT_EQ(coin::pairwiseDelta(idle, active), 9);
    // And symmetrically the active initiator collects everything.
    EXPECT_EQ(coin::pairwiseDelta(active, idle), -9);
}

TEST(Pairwise, HandlesTransientNegativeHoldings)
{
    // A stale exchange can leave a tile negative; math must stay
    // conservative and converge it back up.
    TileCoins i{-4, 10}, j{10, 10};
    Coins delta = coin::pairwiseDelta(i, j);
    EXPECT_EQ(i.has - delta, 3);
    EXPECT_EQ(j.has + delta, 3);
}

TEST(Pairwise, ThermalCapLimitsAcceptance)
{
    TileCoins rich{20, 10}, poor{0, 10};
    // Uncapped: poor would get 10.
    EXPECT_EQ(coin::pairwiseDelta(rich, poor), 10);
    // Capped at 4: only 4 flow.
    EXPECT_EQ(coin::pairwiseDelta(rich, poor, coin::uncapped, 4), 4);
}

TEST(Pairwise, CapNeverForcesGiveaway)
{
    // A tile above its cap keeps its holdings; caps only gate inflow.
    TileCoins over{10, 10}, other{10, 10};
    EXPECT_EQ(coin::pairwiseDelta(over, other, 4, coin::uncapped), 0);
}

TEST(Pairwise, CapOnInitiatorLimitsItsInflow)
{
    TileCoins i{0, 10}, j{20, 10};
    EXPECT_EQ(coin::pairwiseDelta(i, j), -10);
    EXPECT_EQ(coin::pairwiseDelta(i, j, 3, coin::uncapped), -3);
}

/** Property harness over random pairwise states. */
class PairwiseProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PairwiseProperty, ConservesAndNeverIncreasesError)
{
    sim::Rng rng(GetParam());
    for (int trial = 0; trial < 2000; ++trial) {
        TileCoins i{rng.range(0, 64), rng.range(0, 64)};
        TileCoins j{rng.range(0, 64), rng.range(0, 64)};
        // A fixed global alpha models the rest of the SoC; any pair
        // exchange must not raise the pair's total error much beyond
        // the 1-coin rounding bound (Section III-E case analysis).
        const double alpha = rng.uniform(0.0, 1.5);
        auto err = [alpha](const TileCoins &t) {
            return std::abs(static_cast<double>(t.has) -
                            alpha * static_cast<double>(t.max));
        };
        const double before = err(i) + err(j);
        const Coins total = i.has + j.has;

        Coins delta = coin::pairwiseDelta(i, j);
        TileCoins i2{i.has - delta, i.max};
        TileCoins j2{j.has + delta, j.max};

        ASSERT_EQ(i2.has + j2.has, total) << "conservation violated";
        // Pair-local alpha equalization: when both are active the new
        // ratios must agree within one coin of each other.
        if (i.max > 0 && j.max > 0) {
            double ri = static_cast<double>(i2.has) /
                        static_cast<double>(i.max);
            double rj = static_cast<double>(j2.has) /
                        static_cast<double>(j.max);
            double pair_alpha =
                static_cast<double>(total) /
                static_cast<double>(i.max + j.max);
            EXPECT_LE(std::abs(ri - pair_alpha),
                      1.0 / static_cast<double>(i.max));
            EXPECT_LE(std::abs(rj - pair_alpha),
                      1.0 / static_cast<double>(j.max));
        }
        // Error measured against the *pair's own* equilibrium never
        // increases beyond rounding (the paper's four-case argument
        // uses the global alpha; rounding adds at most 1 coin).
        const double after = err(i2) + err(j2);
        if (i.max + j.max > 0) {
            double pair_alpha =
                static_cast<double>(total) /
                static_cast<double>(i.max + j.max);
            (void)pair_alpha;
            EXPECT_LE(after, before + 1.0 + 1e-9)
                << "exchange increased error beyond rounding";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairwiseProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ----------------------------------------------------------- groupSplit

/** groupSplit into a fresh vector, for assertions on the result. */
std::vector<Coins>
split(std::span<const TileCoins> g, std::span<const Coins> caps = {})
{
    std::vector<Coins> out(g.size());
    coin::groupSplit(g, caps, out);
    return out;
}

TEST(GroupSplit, FiveTileFairSplit)
{
    // 4-way exchange: center + 4 neighbors, heterogeneous maxes.
    std::vector<TileCoins> g{{10, 8}, {0, 8}, {6, 16}, {2, 4}, {2, 4}};
    auto out = split(g);
    Coins total = 0;
    for (const auto &t : g)
        total += t.has;
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), Coins{0}), total);
    // alpha = 20/40 = 0.5: expected 4,4,8,2,2.
    EXPECT_EQ(out, (std::vector<Coins>{4, 4, 8, 2, 2}));
}

TEST(GroupSplit, RemainderGoesToLargestFraction)
{
    // total 10 over maxes {3,3,3}: alpha=10/9, shares 3.33 each ->
    // floors 3,3,3, remainder 1 to the lowest index on a tie.
    std::vector<TileCoins> g{{10, 3}, {0, 3}, {0, 3}};
    auto out = split(g);
    EXPECT_EQ(out, (std::vector<Coins>{4, 3, 3}));
}

TEST(GroupSplit, AllInactiveKeepsState)
{
    std::vector<TileCoins> g{{5, 0}, {3, 0}};
    auto out = split(g);
    EXPECT_EQ(out, (std::vector<Coins>{5, 3}));
}

TEST(GroupSplit, InactiveMembersDrained)
{
    std::vector<TileCoins> g{{6, 0}, {0, 12}, {6, 12}};
    auto out = split(g);
    EXPECT_EQ(out, (std::vector<Coins>{0, 6, 6}));
}

TEST(GroupSplit, CapsFreezeAndRedistribute)
{
    std::vector<TileCoins> g{{20, 10}, {0, 10}, {0, 10}};
    std::vector<Coins> caps{coin::uncapped, 2, coin::uncapped};
    auto out = split(g, caps);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), Coins{0}), 20);
    EXPECT_LE(out[1], 2);
    // The frozen tile's share spills to the others.
    EXPECT_GT(out[0] + out[2], 13);
}

// Regression: when every active tile freezes at its cap and only
// inactive tiles remain, the residual coins must be parked without
// breaching the parking tiles' own thermal caps.
TEST(GroupSplit, ResidualParkingRespectsCaps)
{
    // Tile 0 is active but capped at 3; tiles 1 and 2 are inactive.
    // Tile 1 is thermally capped at 2, tile 2 is uncapped. The 9
    // residual coins must overflow past tile 1's cap into tile 2.
    std::vector<TileCoins> g{{0, 10}, {1, 0}, {11, 0}};
    std::vector<Coins> caps{3, 2, coin::uncapped};
    auto out = split(g, caps);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), Coins{0}), 12);
    EXPECT_EQ(out[0], 3);
    EXPECT_LE(out[1], 2) << "capped idle tile ended above its cap";
    EXPECT_EQ(out, (std::vector<Coins>{3, 2, 7}));
}

TEST(GroupSplit, ResidualParkingNeverExceedsAcceptanceLimits)
{
    // The overfull active tile freezes at what it already holds (caps
    // bound acceptance, not retention); the residue lands on the idle
    // tiles without lifting any of them past max(has, cap).
    std::vector<TileCoins> g{{12, 10}, {3, 0}, {0, 0}};
    std::vector<Coins> caps{4, 0, 0};
    auto out = split(g, caps);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), Coins{0}), 15);
    for (std::size_t k = 0; k < g.size(); ++k)
        EXPECT_LE(out[k], std::max(g[k].has, caps[k]))
            << "tile " << k << " lifted past its acceptance limit";
    EXPECT_EQ(out, (std::vector<Coins>{12, 3, 0}));
}

TEST(GroupSplit, EmptyGroupPanics)
{
    std::vector<TileCoins> g;
    EXPECT_THROW(split(g), sim::PanicError);
}

TEST(GroupSplit, OversizedGroupPanics)
{
    std::vector<TileCoins> g(coin::kMaxGroupSize + 1, TileCoins{1, 1});
    EXPECT_THROW(split(g), sim::PanicError);
    g.pop_back();
    EXPECT_EQ(split(g), std::vector<Coins>(coin::kMaxGroupSize, 1));
}

TEST(GroupSplit, OverwritesCallerBuffer)
{
    // A reused buffer carries the previous round's values; the split
    // must replace every one, and the buffer must match the group.
    std::vector<Coins> out{99, 99, 99, 99, 99};
    std::vector<TileCoins> g{{6, 0}, {0, 12}, {6, 12}, {0, 0}, {0, 0}};
    coin::groupSplit(g, {}, out);
    EXPECT_EQ(out, (std::vector<Coins>{0, 6, 6, 0, 0}));
    out.push_back(99);
    EXPECT_THROW(coin::groupSplit(g, {}, out), sim::PanicError);
}

/** Property: group splits conserve exactly and equalize within one
 *  coin for random group states. */
class GroupProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(GroupProperty, ConservesAndEqualizes)
{
    sim::Rng rng(GetParam());
    for (int trial = 0; trial < 1000; ++trial) {
        const auto n = static_cast<std::size_t>(rng.range(2, 5));
        std::vector<TileCoins> g;
        Coins total = 0, tmax = 0;
        for (std::size_t k = 0; k < n; ++k) {
            g.push_back(TileCoins{rng.range(0, 63), rng.range(0, 63)});
            total += g.back().has;
            tmax += g.back().max;
        }
        auto out = split(g);
        ASSERT_EQ(std::accumulate(out.begin(), out.end(), Coins{0}),
                  total);
        if (tmax == 0)
            continue;
        const double alpha = static_cast<double>(total) /
                             static_cast<double>(tmax);
        for (std::size_t k = 0; k < n; ++k) {
            if (g[k].max == 0) {
                EXPECT_EQ(out[k], 0);
            } else {
                EXPECT_LE(std::abs(static_cast<double>(out[k]) -
                                   alpha *
                                       static_cast<double>(g[k].max)),
                          1.0 + 1e-9);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupProperty,
                         ::testing::Values(21u, 34u, 55u, 89u));

/** Property: capped group splits conserve exactly and never push a
 *  tile past its acceptance limit (its cap, or its own holdings when
 *  it already exceeds the cap). */
class CappedGroupProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CappedGroupProperty, ConservesAndRespectsCaps)
{
    sim::Rng rng(GetParam());
    for (int trial = 0; trial < 800; ++trial) {
        const auto n = static_cast<std::size_t>(rng.range(2, 5));
        std::vector<TileCoins> g;
        std::vector<Coins> caps;
        Coins total = 0;
        for (std::size_t k = 0; k < n; ++k) {
            g.push_back(TileCoins{rng.range(0, 40), rng.range(0, 63)});
            total += g.back().has;
            caps.push_back(rng.chance(0.5) ? coin::uncapped
                                           : rng.range(0, 30));
        }
        auto out = split(g, caps);
        ASSERT_EQ(std::accumulate(out.begin(), out.end(), Coins{0}),
                  total)
            << "trial " << trial;
        for (std::size_t k = 0; k < n; ++k) {
            if (caps[k] == coin::uncapped)
                continue;
            // Acceptance limit: the cap, or pre-existing holdings if
            // the tile was already over it.
            Coins limit = std::max(caps[k], g[k].has);
            EXPECT_LE(out[k], limit)
                << "trial " << trial << " tile " << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappedGroupProperty,
                         ::testing::Values(7u, 11u, 19u));

} // namespace
