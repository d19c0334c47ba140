/**
 * @file
 * Tests for the sampled power trace and its metrics.
 */

#include <gtest/gtest.h>

#include "power/power_trace.hpp"
#include "sim/logging.hpp"

namespace {

using namespace blitz;
using power::PowerTrace;

TEST(PowerTrace, AverageIsTimeWeighted)
{
    PowerTrace trace(1, 100.0);
    trace.record(0, {10.0});
    trace.record(100, {30.0}); // 10 mW held for 100 ticks
    trace.record(300, {30.0}); // 30 mW held for 200 ticks
    EXPECT_NEAR(trace.averageTotalMw(),
                (10.0 * 100 + 30.0 * 200) / 300.0, 1e-9);
}

TEST(PowerTrace, PeakAndUtilization)
{
    PowerTrace trace(2, 50.0);
    trace.record(0, {10.0, 10.0});
    trace.record(10, {20.0, 25.0});
    trace.record(20, {5.0, 5.0});
    EXPECT_DOUBLE_EQ(trace.peakTotalMw(), 45.0);
    EXPECT_GT(trace.budgetUtilization(), 0.0);
    EXPECT_LT(trace.budgetUtilization(), 1.0);
}

TEST(PowerTrace, CapViolationFraction)
{
    PowerTrace trace(1, 100.0);
    trace.record(0, {90.0});
    trace.record(1, {103.0});  // beyond 2% tolerance
    trace.record(2, {101.0});  // inside tolerance
    trace.record(3, {150.0});  // beyond
    EXPECT_DOUBLE_EQ(trace.capViolationFraction(0.02), 0.5);
    EXPECT_DOUBLE_EQ(trace.capViolationFraction(0.60), 0.0);
}

TEST(PowerTrace, CsvShape)
{
    PowerTrace trace(2, 10.0);
    trace.record(0, {1.0, 2.0});
    trace.record(800, {3.0, 4.0});
    std::string csv = trace.toCsv({"A", "B"});
    EXPECT_NE(csv.find("tick,us,A,B,total"), std::string::npos);
    EXPECT_NE(csv.find("800,1,3,4,7"), std::string::npos);
}

TEST(PowerTrace, EmptyAndSingleSampleEdges)
{
    PowerTrace trace(1, 10.0);
    EXPECT_DOUBLE_EQ(trace.averageTotalMw(), 0.0);
    EXPECT_DOUBLE_EQ(trace.peakTotalMw(), 0.0);
    EXPECT_DOUBLE_EQ(trace.capViolationFraction(), 0.0);
    trace.record(5, {7.0});
    EXPECT_DOUBLE_EQ(trace.averageTotalMw(), 7.0);
}

TEST(PowerTrace, WrongWidthPanics)
{
    PowerTrace trace(2, 10.0);
    EXPECT_THROW(trace.record(0, {1.0}), sim::PanicError);
    trace.record(0, {1.0, 2.0});
    EXPECT_THROW(trace.toCsv({"only-one"}), sim::PanicError);
}

TEST(PowerTrace, NonPositiveBudgetFatal)
{
    EXPECT_THROW(PowerTrace(1, 0.0), sim::FatalError);
}

} // namespace
