/**
 * @file
 * Introspection-plane unit and property tests: the superstep profiler's
 * counters against kernel ground truth, the deterministic/wallclock
 * split of HealthReport, and the report's JSON round-trip / diff /
 * fold-mode absorb contracts.
 *
 * Suite names start with "Prof" so the tsan preset's name filter picks
 * the whole file up alongside the shard/sweep suites — the profiler's
 * probe slots are written from parallel shard phases, so the barrier
 * publication in ShardGroup::attachProbe is exactly the kind of
 * hand-off tsan should watch.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard.hpp"
#include "trace/health.hpp"
#include "trace/prof.hpp"

namespace {

using namespace blitz;

/** Self-rescheduling sender: steady NoC traffic pinned to its node. */
struct Sender
{
    noc::Network *net;
    sim::EventQueue *eq;
    std::uint32_t state;
    noc::NodeId id;

    void
    operator()()
    {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        noc::Packet p;
        p.src = id;
        p.dst = static_cast<noc::NodeId>(state %
                                         net->topology().size());
        p.type = noc::MsgType::Generic;
        net->send(p);
        eq->scheduleIn(32, *this);
    }
};

/** A d x d sharded mesh under steady traffic, profiler attached. */
struct ProfiledMesh
{
    sim::EventQueue eq;
    sim::ShardGroup group;
    noc::Network net;
    trace::SuperstepProfiler prof;
    std::uint64_t executed = 0;

    ProfiledMesh(int d, std::uint32_t shards)
        : group(eq, shards,
                sim::columnBands(static_cast<std::uint32_t>(d),
                                 static_cast<std::uint32_t>(d), shards)),
          net(eq, noc::Topology(d, d, false))
    {
        net.enableSharding(group);
        const auto n = static_cast<std::uint32_t>(d * d);
        for (noc::NodeId id = 0; id < n; ++id)
            net.setHandler(id, [](const noc::Packet &) {});
        prof.attach(group);
        for (noc::NodeId id = 0; id < n; ++id) {
            Sender s{&net, &eq, 0x9e3779b9u + id, id};
            eq.scheduleAtNode(id, 1 + id % 29, s);
        }
    }

    void run(sim::Tick until) { executed += eq.runUntil(until); }
};

TEST(ProfPlane, CountersMatchKernelGroundTruthAtEveryShardCount)
{
    for (std::uint32_t shards : {2u, 4u}) {
        ProfiledMesh m(6, shards);
        m.run(30'000);
        const sim::ShardProbe &p = m.prof.probe();

        // Every executed event ran in exactly one leaf phase, and this
        // workload schedules nothing on the serial lane, so the
        // per-shard executed counters partition the kernel's total.
        std::uint64_t executed = 0;
        for (const sim::ShardProbe::Shard &s : p.shards)
            executed += s.executed;
        EXPECT_EQ(executed, m.executed) << "shards=" << shards;
        EXPECT_EQ(executed, m.eq.totalExecuted()) << "shards=" << shards;

        // The mailbox matrix is the cross-shard ledger: its total is
        // the group's crossEvents counter, and the diagonal is empty
        // (an intra-shard event never crosses a mailbox).
        std::uint64_t crossed = 0;
        for (std::uint32_t src = 0; src < shards; ++src)
            for (std::uint32_t dst = 0; dst < shards; ++dst) {
                const std::uint64_t c =
                    p.mailbox[static_cast<std::size_t>(src) * shards +
                              dst];
                if (src == dst) {
                    EXPECT_EQ(c, 0u) << "diagonal " << src;
                }
                crossed += c;
            }
        EXPECT_EQ(crossed, m.group.crossEvents()) << "shards=" << shards;
        EXPECT_GT(crossed, 0u) << "no boundary traffic";

        // One probe superstep per kernel epoch; every superstep with
        // leaf work went either through the inline fast path or a
        // barrier (serial-only supersteps, the third case, need serial
        // events this workload does not schedule).
        EXPECT_EQ(p.supersteps, m.group.epochs()) << "shards=" << shards;
        EXPECT_EQ(p.fastPath + p.barriers, p.supersteps)
            << "shards=" << shards;

        EXPECT_GE(m.prof.imbalance(), 1.0);
    }
}

TEST(ProfPlane, FillHealthSplitsDeterministicFromWallclock)
{
    auto runOnce = [](trace::HealthReport &report) {
        ProfiledMesh m(6, 4);
        m.run(30'000);
        m.prof.fillHealth(report);
    };
    trace::HealthReport a;
    trace::HealthReport b;
    runOnce(a);
    runOnce(b);

    // Outcome counters are a pure function of (workload, partition):
    // two identical runs agree key for key — including the engine
    // gauges — while wall-clock totals land in the other section.
    EXPECT_TRUE(trace::HealthReport::diff(a, b).empty());
    ASSERT_NE(a.findDet("prof.supersteps"), nullptr);
    ASSERT_NE(a.findDet("prof/shard0.events"), nullptr);
    ASSERT_NE(a.findDet("queue/shard0.depth_hwm"), nullptr);
    ASSERT_NE(a.findDet("arena/shard0.used_hwm_bytes"), nullptr);
    EXPECT_EQ(a.findDet("prof.exec_ms"), nullptr)
        << "wall-clock leaked into the deterministic section";
    ASSERT_NE(a.findWall("prof.exec_ms"), nullptr);
    ASSERT_NE(a.findWall("prof.imbalance"), nullptr);
    EXPECT_GE(*a.findWall("prof.imbalance"), 1.0);
    EXPECT_GT(*a.findDet("prof.supersteps"), 0.0);
}

TEST(ProfPlane, DetachedProbeLeavesNoSlots)
{
    ProfiledMesh m(4, 2);
    m.prof.detach();
    EXPECT_FALSE(m.prof.attached());
    m.run(10'000);
    const sim::ShardProbe &p = m.prof.probe();
    EXPECT_EQ(p.supersteps, 0u);
    EXPECT_GT(m.group.epochs(), 0u);
    // Detaching twice (and destroying detached) stays safe.
    m.prof.detach();
}

// ------------------------------------------------------- health report

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
        r.setDet("shards", 4);           // idempotent across trials
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
    EXPECT_EQ(*acc.findDet("shards"), 4.0);
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
