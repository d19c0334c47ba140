/**
 * @file
 * Unit tests for the simulation kernel: event queue, RNG, statistics,
 * logging, and time conversions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "timer_diff.hpp"

namespace {

using namespace blitz;

// ---------------------------------------------------------------- time

TEST(Types, TickNanosecondRoundTrip)
{
    EXPECT_DOUBLE_EQ(sim::ticksToNs(1), 1.25);
    EXPECT_DOUBLE_EQ(sim::ticksToNs(800), 1000.0);
    EXPECT_EQ(sim::nsToTicks(1000.0), 800u);
    EXPECT_EQ(sim::usToTicks(1.0), 800u);
    EXPECT_EQ(sim::msToTicks(1.0), 800000u);
}

TEST(Types, NsToTicksRoundsUp)
{
    // 1 ns is less than a cycle; it must not round down to zero.
    EXPECT_EQ(sim::nsToTicks(1.0), 1u);
    EXPECT_EQ(sim::nsToTicks(1.25), 1u);
    EXPECT_EQ(sim::nsToTicks(1.26), 2u);
}

TEST(Types, TicksToUsScales)
{
    EXPECT_DOUBLE_EQ(sim::ticksToUs(800), 1.0);
}

// --------------------------------------------------------------- events

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickPriorityOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); },
                sim::Priority::Controller);
    eq.schedule(5, [&] { order.push_back(1); },
                sim::Priority::NocTransfer);
    eq.schedule(5, [&] { order.push_back(3); }, sim::Priority::Stats);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickSamePriorityFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.runUntil();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilHonorsLimit)
{
    sim::EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilAdvancesNowToLimit)
{
    sim::EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    sim::EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    eq.runUntil();
    EXPECT_THROW(eq.schedule(50, [] {}), sim::PanicError);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    sim::EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, NoEventExecutesPastLimit)
{
    sim::EventQueue eq;
    std::vector<sim::Tick> fired;
    for (sim::Tick t = 5; t <= 50; t += 5)
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.runUntil(25);
    EXPECT_EQ(fired, (std::vector<sim::Tick>{5, 10, 15, 20, 25}));
    EXPECT_EQ(eq.now(), 25u);
    EXPECT_EQ(eq.pending(), 5u);
}

// Regression: the executed count must track callbacks actually run —
// same-tick events a callback schedules count, events it parks past
// the horizon do not.
TEST(EventQueue, RunUntilCountsOnlyExecutedCallbacks)
{
    sim::EventQueue eq;
    int ran = 0;
    eq.schedule(5, [&] {
        ++ran;
        eq.schedule(5, [&] { ++ran; });
        eq.schedule(12, [&] { ++ran; });
    });
    eq.schedule(8, [&] { ++ran; });
    eq.schedule(25, [&] { ++ran; });
    EXPECT_EQ(eq.runUntil(10), 3u);
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.runUntil(), 2u);
    EXPECT_EQ(ran, 5);
}

// Events past the kWheelTicks (4,096-tick) calendar window park in
// the far-heap: the horizon must hold for them exactly as for wheel
// events, and once they migrate into the wheel they must interleave
// with wheel events at the same tick in (tick, priority, FIFO) order.
TEST(EventQueue, FarHeapEventHonorsHorizon)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(10'000, [&] { order.push_back(1); }); // far
    eq.schedule(10'000, [&] { order.push_back(3); },
                sim::Priority::Controller); // far
    EXPECT_EQ(eq.runUntil(5'000), 0u);
    EXPECT_EQ(eq.now(), 5'000u);
    EXPECT_EQ(eq.pending(), 2u);

    // Slide the window so 10'000 lands in the wheel for new events.
    EXPECT_EQ(eq.runUntil(7'000), 0u);
    eq.schedule(10'000, [&] { order.push_back(2); }); // wheel
    eq.schedule(10'000, [&] { order.push_back(0); },
                sim::Priority::NocTransfer); // wheel
    EXPECT_EQ(eq.runUntil(20'000), 4u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 20'000u);

    sim::EventQueue far;
    bool ran = false;
    far.schedule(10'000, [&] { ran = true; });
    EXPECT_FALSE(far.runOne(9'999));
    EXPECT_FALSE(ran);
    EXPECT_EQ(far.now(), 0u);
    EXPECT_TRUE(far.runOne(10'000));
    EXPECT_TRUE(ran);
    EXPECT_EQ(far.now(), 10'000u);
}

TEST(EventQueue, RunOneHonorsHorizon)
{
    sim::EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&] { ran = true; });
    EXPECT_FALSE(eq.runOne(5));
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne(10));
    EXPECT_TRUE(ran);
}

TEST(EventQueue, PendingCountsScheduled)
{
    sim::EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.runUntil();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, InterleavedTicksKeepPerTickFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    const sim::Tick ticks[] = {30, 10, 20, 10, 30, 20, 10};
    int tag = 0;
    for (sim::Tick t : ticks) {
        eq.schedule(t, [&order, tag] { order.push_back(tag); });
        ++tag;
    }
    eq.runUntil();
    // Per tick, insertion order; ticks ascend: 10:{1,3,6} 20:{2,5}
    // 30:{0,4}.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 6, 2, 5, 0, 4}));
}

TEST(EventQueue, PriorityBreaksTiesBeforeFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); }, sim::Priority::Stats);
    eq.schedule(10, [&] { order.push_back(1); },
                sim::Priority::NocTransfer);
    eq.schedule(10, [&] { order.push_back(2); }, sim::Priority::Default);
    eq.schedule(10, [&] { order.push_back(3); },
                sim::Priority::NocTransfer);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0}));
}

// --------------------------------------------------------------- timers

TEST(Timer, FiresOnceAtItsLastArm)
{
    sim::EventQueue eq;
    std::vector<sim::Tick> fired;
    sim::Timer t(eq, [&] { fired.push_back(eq.now()); });
    t.arm(100);
    t.arm(30);      // wheel -> wheel
    t.arm(50'000);  // -> far-heap
    t.arm(70'000);  // far-heap -> far-heap
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil();
    EXPECT_EQ(fired, (std::vector<sim::Tick>{70'000}));
    EXPECT_FALSE(t.armed());
    // Each arm counts as scheduled; the three superseded ones were
    // removed, never executed.
    EXPECT_EQ(eq.totalScheduled(), 4u);
    EXPECT_EQ(eq.totalExecuted(), 1u);
}

TEST(Timer, DisarmedEntryNeverRuns)
{
    sim::EventQueue eq;
    int ran = 0;
    sim::Timer near(eq, [&] { ++ran; });
    sim::Timer far(eq, [&] { ++ran; });
    near.arm(10);
    far.arm(9'000);
    near.disarm();
    far.disarm();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.runUntil(), 0u);
    EXPECT_EQ(ran, 0);
    // A removed entry does not move time either.
    EXPECT_EQ(eq.now(), 0u);
}

TEST(Timer, SameTickReArmAndDisarmInsideTheLiveBatch)
{
    sim::EventQueue eq;
    std::vector<int> order;
    sim::Timer a(eq, [&] { order.push_back(1); });
    sim::Timer b(eq, [&] { order.push_back(2); });
    eq.schedule(5, [&] {
        order.push_back(0);
        b.disarm();   // b sits later in this tick's batch
        a.arm(5);     // re-keyed behind everything already queued at 5
    });
    a.arm(5);
    b.arm(5);
    eq.schedule(5, [&] { order.push_back(3); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 1}));
}

TEST(Timer, CallbackMayReArmItself)
{
    sim::EventQueue eq;
    struct
    {
        sim::EventQueue *eq;
        sim::Timer *self;
        std::vector<sim::Tick> fired;
    } st{&eq, nullptr, {}};
    sim::Timer t(eq, [&st] {
        st.fired.push_back(st.eq->now());
        if (st.fired.size() < 3)
            st.self->armIn(5'000);
    });
    st.self = &t;
    t.arm(1);
    eq.runUntil();
    EXPECT_EQ(st.fired, (std::vector<sim::Tick>{1, 5'001, 10'001}));
}

TEST(Timer, HonorsRunUntilHorizons)
{
    sim::EventQueue eq;
    bool ran = false;
    sim::Timer t(eq, [&] { ran = true; });
    t.arm(10'000);
    EXPECT_EQ(eq.runUntil(9'999), 0u);
    EXPECT_TRUE(t.armed());
    EXPECT_FALSE(eq.runOne(9'999));
    EXPECT_EQ(eq.runUntil(10'000), 1u);
    EXPECT_TRUE(ran);
    EXPECT_THROW(t.arm(9'000), sim::PanicError);
}

TEST(Timer, OutlivedQueueDetachesIt)
{
    auto eq = std::make_unique<sim::EventQueue>();
    sim::Timer t(*eq, [] {});
    t.arm(50'000);
    eq.reset();
    EXPECT_FALSE(t.armed()); // and its destructor touches nothing
}

/**
 * Run the differential workload (tests/timer_diff.hpp) over a plain
 * queue: runUntil() horizons interleaved with arms/disarms from
 * outside any event.
 */
template <class Timers>
blitz::testing::TimerLog
runTimerWorkload(std::uint64_t seed, std::vector<sim::Tick> &nows,
                 std::uint64_t *removedOut)
{
    sim::EventQueue eq;
    blitz::testing::TimerDrive<Timers> drive(eq, 1, seed, 4000);
    sim::Rng horizon(seed);
    for (int round = 0; round < 80; ++round) {
        for (int p = 0; p < 3; ++p)
            drive.poke(0);
        const sim::Tick step = round % 3 == 0 ? 1 + horizon.below(16)
                               : round % 3 == 1
                                   ? 100 + horizon.below(5000)
                                   : 5000 + horizon.below(40000);
        eq.runUntil(eq.now() + step);
        nows.push_back(eq.now());
        if constexpr (std::is_same_v<Timers, blitz::testing::RealTimers>) {
            // Every arm is scheduled once; it either ran, was removed
            // by a disarm or re-arm, or is still pending.
            EXPECT_EQ(eq.totalScheduled() - eq.totalExecuted(),
                      drive.timers().removed() + eq.pending());
        }
    }
    eq.runUntil(eq.now() + 100'000);
    if constexpr (std::is_same_v<Timers, blitz::testing::RealTimers>)
        *removedOut = drive.timers().removed();
    return drive.log(0);
}

TEST(Timer, MatchesTheStampGuardedScheduleIdiom)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 7919u}) {
        std::vector<sim::Tick> realNows;
        std::vector<sim::Tick> refNows;
        std::uint64_t removed = 0;
        const blitz::testing::TimerLog real =
            runTimerWorkload<blitz::testing::RealTimers>(seed, realNows,
                                                  &removed);
        const blitz::testing::TimerLog ref =
            runTimerWorkload<blitz::testing::StampedTimers>(seed, refNows,
                                                     nullptr);
        EXPECT_EQ(real, ref) << "seed " << seed;
        EXPECT_EQ(realNows, refNows) << "seed " << seed;
        // Non-vacuity: a real workload with timer firings and removals.
        EXPECT_GT(real.size(), 4000u) << "seed " << seed;
        EXPECT_GT(std::count_if(real.begin(), real.end(),
                                [](const auto &e) { return e.second < 0; }),
                  1000) << "seed " << seed;
        EXPECT_GT(removed, 1000u) << "seed " << seed;
    }
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    sim::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    sim::Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    sim::Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    sim::Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    sim::Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMean)
{
    sim::Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, NormalMoments)
{
    sim::Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements)
{
    sim::Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ChanceExtremes)
{
    sim::Rng rng(31);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

// --------------------------------------------------------------- stats

TEST(Summary, BasicMoments)
{
    sim::Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyIsZero)
{
    sim::Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombined)
{
    sim::Summary a, b, all;
    for (int i = 0; i < 50; ++i) {
        double x = i * 0.7;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty)
{
    sim::Summary a, b;
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Histogram, BinsAndOverflow)
{
    sim::Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // underflow
    h.add(0.0);  // bin 0
    h.add(1.9);  // bin 0
    h.add(2.0);  // bin 1
    h.add(9.99); // bin 4
    h.add(10.0); // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHigh(1), 4.0);
}

TEST(Histogram, FormatMentionsCounts)
{
    sim::Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    std::string text = h.format();
    EXPECT_NE(text.find("1"), std::string::npos);
    EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(Histogram, InvalidConstructionFails)
{
    EXPECT_THROW(sim::Histogram(1.0, 1.0, 4), sim::PanicError);
    EXPECT_THROW(sim::Histogram(0.0, 1.0, 0), sim::PanicError);
}

TEST(Percentiles, ExactQuantiles)
{
    sim::Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.minimum(), 1.0);
    EXPECT_DOUBLE_EQ(p.maximum(), 100.0);
    EXPECT_NEAR(p.median(), 50.5, 1e-9);
    EXPECT_NEAR(p.p95(), 95.05, 1e-9);
    EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Percentiles, SingleSample)
{
    sim::Percentiles p;
    p.add(42.0);
    EXPECT_DOUBLE_EQ(p.median(), 42.0);
    EXPECT_DOUBLE_EQ(p.p99(), 42.0);
}

TEST(Percentiles, EmptyQuantilePanics)
{
    sim::Percentiles p;
    EXPECT_THROW(p.median(), sim::PanicError);
}

TEST(Percentiles, MergeOfSortedPartitionsMatchesSerial)
{
    // Sweep folds merge partitions that were often already queried
    // (hence sorted); the sorted-merge fast path must produce the same
    // quantiles and mean as feeding every sample serially.
    sim::Percentiles serial, a, b;
    const double xs[] = {9, 1, 4, 7, 2, 8, 0, 3, 6, 5};
    for (int i = 0; i < 10; ++i) {
        serial.add(xs[i]);
        (i < 5 ? a : b).add(xs[i]);
    }
    // Force both partitions sorted before merging.
    (void)a.median();
    (void)b.median();
    a.merge(b);
    EXPECT_EQ(a.count(), serial.count());
    EXPECT_DOUBLE_EQ(a.median(), serial.median());
    EXPECT_DOUBLE_EQ(a.p95(), serial.p95());
    EXPECT_DOUBLE_EQ(a.minimum(), serial.minimum());
    EXPECT_DOUBLE_EQ(a.maximum(), serial.maximum());
    EXPECT_DOUBLE_EQ(a.mean(), serial.mean());
}

TEST(Percentiles, AscendingAppendsStaySorted)
{
    // Appending in nondecreasing order (common for tick-ordered stat
    // sampling) must keep the accumulator consistent through repeated
    // quantile queries and further adds.
    sim::Percentiles p;
    p.reserve(6);
    for (double x : {1.0, 2.0, 2.0, 5.0})
        p.add(x);
    EXPECT_DOUBLE_EQ(p.median(), 2.0);
    p.add(9.0);
    p.add(11.0);
    EXPECT_DOUBLE_EQ(p.maximum(), 11.0);
    EXPECT_DOUBLE_EQ(p.median(), 3.5);
    EXPECT_DOUBLE_EQ(p.mean(), 30.0 / 6.0);
}

TEST(Percentiles, MergeIntoEmptyAndFromEmpty)
{
    sim::Percentiles empty, filled;
    filled.add(3.0);
    filled.add(1.0);
    filled.merge(empty); // no-op
    EXPECT_EQ(filled.count(), 2u);
    sim::Percentiles target;
    target.merge(filled);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.median(), 2.0);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

// -------------------------------------------------------------- logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(sim::fatal("bad config: ", 42), sim::FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(sim::panic("invariant ", "broken"), sim::PanicError);
}

TEST(Logging, MessagesCarryContent)
{
    try {
        sim::fatal("value was ", 7);
        FAIL() << "fatal did not throw";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(BLITZ_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(BLITZ_ASSERT(1 + 1 == 3, "broken"), sim::PanicError);
}

} // namespace
