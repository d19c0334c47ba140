/**
 * @file
 * Tests for the random activity-phase generator.
 */

#include <gtest/gtest.h>

#include "workload/phase_gen.hpp"

namespace {

using namespace blitz;
using workload::PhaseGenConfig;
using workload::PhaseGenerator;

PhaseGenConfig
config(sim::Tick mean)
{
    PhaseGenConfig cfg;
    cfg.meanPhaseTicks = mean;
    return cfg;
}

TEST(PhaseGen, EventsAreSorted)
{
    PhaseGenerator gen(8, config(1000), 1);
    auto events = gen.generate(100000);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].when, events[i - 1].when);
}

TEST(PhaseGen, PerTileEventsAlternate)
{
    PhaseGenerator gen(4, config(500), 2);
    auto events = gen.generate(50000);
    std::vector<bool> state(4);
    for (std::size_t i = 0; i < 4; ++i)
        state[i] = gen.initialActive()[i];
    for (const auto &e : events) {
        EXPECT_NE(e.startsExecution, state[e.tile])
            << "non-alternating event for tile " << e.tile;
        state[e.tile] = e.startsExecution;
    }
}

TEST(PhaseGen, MeanIntervalApproximatesTw)
{
    const sim::Tick tw = 2000;
    PhaseGenerator gen(16, config(tw), 3);
    auto events = gen.generate(2000000);
    // 16 tiles, horizon/Tw phases each: expect ~16 * horizon / Tw.
    double expected = 16.0 * 2000000.0 / static_cast<double>(tw);
    EXPECT_NEAR(static_cast<double>(events.size()), expected,
                expected * 0.15);
}

TEST(PhaseGen, DeterministicForSeed)
{
    PhaseGenerator a(8, config(1000), 77);
    PhaseGenerator b(8, config(1000), 77);
    auto ea = a.generate(50000);
    auto eb = b.generate(50000);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].when, eb[i].when);
        EXPECT_EQ(ea[i].tile, eb[i].tile);
        EXPECT_EQ(ea[i].startsExecution, eb[i].startsExecution);
    }
}

TEST(PhaseGen, InitialActiveFractionRoughlyHolds)
{
    PhaseGenConfig cfg = config(1000);
    cfg.initialActiveFraction = 0.8;
    PhaseGenerator gen(1000, cfg, 5);
    int active = 0;
    for (bool a : gen.initialActive())
        active += a ? 1 : 0;
    EXPECT_NEAR(active, 800, 60);
}

TEST(PhaseGen, InvalidConfigFatal)
{
    EXPECT_THROW(PhaseGenerator(0, config(100), 1), sim::FatalError);
    EXPECT_THROW(PhaseGenerator(4, config(0), 1), sim::FatalError);
}

} // namespace
