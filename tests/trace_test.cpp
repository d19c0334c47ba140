/**
 * @file
 * Tests for activity-trace recording and replay.
 */

#include <gtest/gtest.h>

#include "workload/trace.hpp"

namespace {

using namespace blitz;
using workload::ActivityTrace;

ActivityTrace
smallTrace()
{
    ActivityTrace t;
    t.record(0, 0, true);
    t.record(0, 1, true);
    t.record(5000, 0, false);
    t.record(9000, 2, true);
    t.record(15000, 1, false);
    return t;
}

TEST(Trace, RecordsInOrder)
{
    ActivityTrace t = smallTrace();
    EXPECT_EQ(t.size(), 5u);
    EXPECT_EQ(t.horizon(), 15000u);
    EXPECT_EQ(t.maxTile(), 2u);
}

TEST(Trace, RejectsOutOfOrderEdges)
{
    ActivityTrace t;
    t.record(100, 0, true);
    EXPECT_THROW(t.record(50, 1, true), sim::FatalError);
}

TEST(Trace, FromGeneratorCoversHorizon)
{
    workload::PhaseGenConfig cfg;
    cfg.meanPhaseTicks = 1000;
    workload::PhaseGenerator gen(8, cfg, 3);
    ActivityTrace t = ActivityTrace::fromGenerator(gen, 20000);
    EXPECT_GT(t.size(), 20u);
    EXPECT_LE(t.horizon(), 20000u);
    EXPECT_LT(t.maxTile(), 8u);
}

TEST(Trace, ReplayConservesAndConverges)
{
    ActivityTrace t = smallTrace();
    t.setTargetCoins(0, 32);
    coin::EngineConfig cfg;
    coin::MeshSim sim(noc::Topology::square(2), cfg, 9);
    sim.randomizeHas(24);
    auto stats = t.replayOn(sim);
    EXPECT_EQ(sim.ledger().totalHas(), 24);
    EXPECT_GT(stats.exchanges, 0u);
    // After the last edge only tile 2 is active; it ends holding
    // (nearly) everything.
    EXPECT_GE(sim.ledger().has(2), 22);
    EXPECT_LE(stats.finalMaxError, 2.5);
}

TEST(Trace, ReplayBusyFractionReflectsChurn)
{
    // Dense churn keeps the mesh busier than sparse churn.
    auto busy_for = [](sim::Tick mean_phase) {
        workload::PhaseGenConfig cfg;
        cfg.meanPhaseTicks = mean_phase;
        workload::PhaseGenerator gen(16, cfg, 11);
        ActivityTrace t =
            ActivityTrace::fromGenerator(gen, 16 * mean_phase);
        coin::EngineConfig ecfg;
        coin::MeshSim sim(noc::Topology::square(4), ecfg, 13);
        sim.randomizeHas(128);
        return t.replayOn(sim).busyFraction;
    };
    EXPECT_GT(busy_for(2000), busy_for(50000));
}

TEST(Trace, ReplayRejectsUndersizedMesh)
{
    ActivityTrace t = smallTrace(); // uses tiles up to 2
    coin::EngineConfig cfg;
    coin::MeshSim tiny(noc::Topology(2, 1, false), cfg, 1);
    EXPECT_THROW(t.replayOn(tiny), sim::PanicError);
}

} // namespace
