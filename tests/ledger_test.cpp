/**
 * @file
 * Tests for the coin ledger: totals, error metrics, conservation.
 */

#include <gtest/gtest.h>

#include "coin/ledger.hpp"
#include "sim/logging.hpp"
#include "sim/rng.hpp"

namespace {

using namespace blitz;
using coin::Ledger;

TEST(Ledger, StartsZeroed)
{
    Ledger l(4);
    EXPECT_EQ(l.size(), 4u);
    EXPECT_EQ(l.totalHas(), 0);
    EXPECT_EQ(l.totalMax(), 0);
    EXPECT_DOUBLE_EQ(l.alpha(), 0.0);
    EXPECT_DOUBLE_EQ(l.globalError(), 0.0);
}

TEST(Ledger, TotalsTrackMutations)
{
    Ledger l(3);
    l.setMax(0, 10);
    l.setMax(1, 20);
    l.setHas(0, 6);
    l.setHas(2, 4);
    EXPECT_EQ(l.totalMax(), 30);
    EXPECT_EQ(l.totalHas(), 10);
    l.setMax(0, 0); // activity end
    EXPECT_EQ(l.totalMax(), 20);
}

TEST(Ledger, AlphaIsHasOverMax)
{
    Ledger l(2);
    l.setMax(0, 10);
    l.setMax(1, 30);
    l.setHas(0, 5);
    l.setHas(1, 15);
    EXPECT_DOUBLE_EQ(l.alpha(), 0.5);
}

TEST(Ledger, TransferConservesTotal)
{
    Ledger l(2);
    l.setHas(0, 10);
    l.transfer(0, 1, 4);
    EXPECT_EQ(l.has(0), 6);
    EXPECT_EQ(l.has(1), 4);
    EXPECT_EQ(l.totalHas(), 10);
    l.transfer(0, 1, -2); // negative reverses direction
    EXPECT_EQ(l.has(0), 8);
    EXPECT_EQ(l.has(1), 2);
    EXPECT_EQ(l.totalHas(), 10);
}

TEST(Ledger, TransferCanGoNegativeTransiently)
{
    // The hardware's sign bit: in-flight exchanges may overdraw.
    Ledger l(2);
    l.setHas(0, 3);
    l.transfer(0, 1, 5);
    EXPECT_EQ(l.has(0), -2);
    EXPECT_EQ(l.totalHas(), 3);
}

TEST(Ledger, ErrorMetricsMatchDefinition)
{
    // Paper Section III-E: alpha = 30/40; E_i = |has - alpha*max|.
    Ledger l(2);
    l.setMax(0, 10);
    l.setMax(1, 30);
    l.setHas(0, 10);
    l.setHas(1, 20);
    const double alpha = 30.0 / 40.0;
    EXPECT_DOUBLE_EQ(l.tileError(0), std::abs(10.0 - alpha * 10.0));
    EXPECT_DOUBLE_EQ(l.tileError(1), std::abs(20.0 - alpha * 30.0));
    EXPECT_DOUBLE_EQ(l.globalError(),
                     (l.tileError(0) + l.tileError(1)) / 2.0);
    EXPECT_DOUBLE_EQ(l.maxError(),
                     std::max(l.tileError(0), l.tileError(1)));
}

TEST(Ledger, PerfectDistributionHasZeroError)
{
    Ledger l(3);
    l.setMax(0, 10);
    l.setMax(1, 20);
    l.setMax(2, 30);
    l.setHas(0, 5);
    l.setHas(1, 10);
    l.setHas(2, 15);
    EXPECT_DOUBLE_EQ(l.globalError(), 0.0);
    EXPECT_TRUE(l.converged(0.01));
}

TEST(Ledger, InactiveTileCoinsCountAsError)
{
    Ledger l(2);
    l.setMax(0, 10);
    l.setHas(0, 5);
    l.setHas(1, 5); // parked on an inactive tile
    // alpha = 10/10 = 1; E0 = |5-10| = 5, E1 = |5-0| = 5.
    EXPECT_DOUBLE_EQ(l.globalError(), 5.0);
}

TEST(Ledger, InvalidOperationsPanic)
{
    Ledger l(2);
    EXPECT_THROW(l.setMax(5, 1), sim::PanicError);
    EXPECT_THROW(l.setMax(0, -1), sim::PanicError);
    EXPECT_THROW(l.transfer(0, 0, 1), sim::PanicError);
    EXPECT_THROW(Ledger(0), sim::PanicError);
}

/** Property: random transfer sequences never change the total. */
TEST(LedgerProperty, RandomTransfersConserve)
{
    sim::Rng rng(77);
    Ledger l(16);
    for (std::size_t i = 0; i < 16; ++i)
        l.setHas(i, rng.range(0, 20));
    const coin::Coins total = l.totalHas();
    for (int step = 0; step < 5000; ++step) {
        auto a = static_cast<std::size_t>(rng.below(16));
        auto b = static_cast<std::size_t>(rng.below(16));
        if (a == b)
            continue;
        l.transfer(a, b, rng.range(-5, 5));
        ASSERT_EQ(l.totalHas(), total);
    }
}

} // namespace
