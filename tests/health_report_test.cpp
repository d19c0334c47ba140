/**
 * @file
 * HealthReport unit tests: the report's JSON round-trip, its
 * malformed-input rejection, the deterministic-only diff, fold-mode
 * absorb, and the event-queue engine gauges it carries.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "trace/health.hpp"

namespace {

using namespace blitz;

TEST(ProfHealth, JsonRoundTripsThroughParse)
{
    trace::HealthReport r;
    r.setRun("unit \"quoted\" run");
    r.bumpDet("coin.total", 1234);
    r.maxDet("queue.depth_hwm", 77);
    r.setDet("exact", 0.125);
    r.bumpWall("prof.exec_ms", 12.5);
    r.setWall("sweep.utilization", 0.75);

    std::ostringstream os;
    r.writeJson(os);

    trace::HealthReport back;
    std::istringstream is(os.str());
    ASSERT_TRUE(back.parse(is));
    EXPECT_EQ(back.run(), "unit \"quoted\" run");
    ASSERT_NE(back.findDet("coin.total"), nullptr);
    EXPECT_EQ(*back.findDet("coin.total"), 1234.0);
    EXPECT_EQ(*back.findDet("queue.depth_hwm"), 77.0);
    EXPECT_EQ(*back.findDet("exact"), 0.125);
    EXPECT_EQ(*back.findWall("prof.exec_ms"), 12.5);
    EXPECT_EQ(*back.findWall("sweep.utilization"), 0.75);
    EXPECT_TRUE(trace::HealthReport::diff(r, back).empty());
}

TEST(ProfHealth, ParseRejectsMalformedDocumentsAndClears)
{
    trace::HealthReport r;
    r.bumpDet("stale", 1);
    std::istringstream bad(
        "{\"blitzHealth\":1,\"run\":\"x\",\"deterministic\":{\"a\":");
    EXPECT_FALSE(r.parse(bad));
    EXPECT_EQ(r.findDet("stale"), nullptr) << "failed parse kept state";
    EXPECT_EQ(r.findDet("a"), nullptr);

    std::istringstream wrongMagic("{\"blitzHealth\":2}");
    EXPECT_FALSE(r.parse(wrongMagic));
    std::istringstream notJson("hello");
    EXPECT_FALSE(r.parse(notJson));
}

TEST(ProfHealth, DiffComparesOnlyTheDeterministicSection)
{
    trace::HealthReport a;
    trace::HealthReport b;
    a.bumpDet("same", 5);
    b.bumpDet("same", 5);
    a.bumpDet("changed", 1);
    b.bumpDet("changed", 2);
    a.bumpDet("only_a", 9);
    b.bumpDet("only_b", 10);
    a.bumpWall("wall", 100);
    b.bumpWall("wall", 999); // wall-clock never enters the verdict

    auto d = trace::HealthReport::diff(a, b);
    ASSERT_EQ(d.size(), 3u);
    EXPECT_EQ(d[0].key, "changed");
    EXPECT_TRUE(d[0].inA && d[0].inB);
    EXPECT_EQ(d[1].key, "only_a");
    EXPECT_FALSE(d[1].inB);
    EXPECT_EQ(d[2].key, "only_b");
    EXPECT_FALSE(d[2].inA);
}

TEST(ProfHealth, AbsorbReplaysEntriesWithTheirFoldModes)
{
    auto trial = [](double events, double hwm) {
        trace::HealthReport r;
        r.bumpDet("events", events);     // sums across trials
        r.maxDet("depth_hwm", hwm);      // max across trials
        r.setDet("units", 4);            // idempotent across trials
        r.bumpWall("exec_ms", events / 10.0);
        return r;
    };
    trace::HealthReport acc;
    acc.setRun("fold");
    acc.absorb(trial(100, 7));
    acc.absorb(trial(50, 31));
    acc.absorb(trial(25, 9));

    EXPECT_EQ(*acc.findDet("events"), 175.0);
    EXPECT_EQ(*acc.findDet("depth_hwm"), 31.0);
    EXPECT_EQ(*acc.findDet("units"), 4.0);
    EXPECT_EQ(*acc.findWall("exec_ms"), 17.5);
    EXPECT_EQ(acc.run(), "fold");

    // An empty accumulator adopts the other report's run label.
    trace::HealthReport fresh;
    fresh.absorb(acc);
    EXPECT_EQ(fresh.run(), "fold");
    EXPECT_EQ(*fresh.findDet("events"), 175.0);
}

TEST(ProfHealth, QueueAndArenaGaugesReportHighWaterMarks)
{
    sim::EventQueue eq;
    struct Tick
    {
        sim::EventQueue *eq;
        void
        operator()() const
        {
            if (eq->now() < 5'000)
                eq->scheduleIn(1, *this);
        }
    };
    for (int i = 0; i < 32; ++i)
        eq.schedule(1 + i % 7, Tick{&eq});
    eq.runUntil(10'000);

    trace::HealthReport r;
    trace::fillQueueHealth(r, eq);
    ASSERT_NE(r.findDet("queue.executed"), nullptr);
    ASSERT_NE(r.findDet("queue.depth_hwm"), nullptr);
    EXPECT_EQ(*r.findDet("queue.executed"),
              static_cast<double>(eq.totalExecuted()));
    EXPECT_GT(*r.findDet("queue.depth_hwm"), 0.0);
    EXPECT_GE(*r.findDet("queue.scheduled"),
              *r.findDet("queue.executed"));
}

} // namespace
