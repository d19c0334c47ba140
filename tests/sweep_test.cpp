/**
 * @file
 * Tests for the deterministic parallel sweep harness: the thread pool,
 * the splitmix64 stream derivation, and the bit-identical-for-any-
 * thread-count guarantee the benches rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "coin/engine.hpp"
#include "sim/stats.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"

namespace {

using namespace blitz;

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryJob)
{
    sweep::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    sweep::ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> count{0};
    {
        sweep::ThreadPool pool(3);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroWorkersPanics)
{
    EXPECT_THROW(sweep::ThreadPool{0}, sim::PanicError);
}

// ------------------------------------------------------ stream derivation

TEST(StreamSeed, PureFunctionOfRootAndIndex)
{
    EXPECT_EQ(sweep::streamSeed(42, 7), sweep::streamSeed(42, 7));
    EXPECT_NE(sweep::streamSeed(42, 7), sweep::streamSeed(42, 8));
    EXPECT_NE(sweep::streamSeed(42, 7), sweep::streamSeed(43, 7));
}

TEST(StreamSeed, NoCollisionsOverAWideSweep)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(sweep::streamSeed(1, i));
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(StreamSeed, MatchesRngSeedExpansionQuality)
{
    // Streams must be usable directly as Rng seeds: distinct streams
    // give distinct sequences.
    sim::Rng a(sweep::streamSeed(5, 0));
    sim::Rng b(sweep::streamSeed(5, 1));
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

// -------------------------------------------------------------- runSweep

TEST(RunSweep, ResultsComeBackInIndexOrder)
{
    sweep::SweepOptions opts;
    opts.threads = 4;
    auto out = sweep::runSweep(
        64, 1,
        [](std::size_t i, std::uint64_t) { return 3 * i; }, opts);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i);
}

TEST(RunSweep, ZeroReplicationsIsEmpty)
{
    auto out = sweep::runSweep(
        0, 1, [](std::size_t, std::uint64_t) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(RunSweep, PassesDerivedStreamSeeds)
{
    auto out = sweep::runSweep(
        8, 99, [](std::size_t, std::uint64_t seed) { return seed; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], sweep::streamSeed(99, i));
}

TEST(RunSweep, FirstExceptionPropagates)
{
    sweep::SweepOptions opts;
    opts.threads = 4;
    EXPECT_THROW(sweep::runSweep(
                     16, 1,
                     [](std::size_t i, std::uint64_t) {
                         if (i == 3)
                             throw std::runtime_error("trial failed");
                         return i;
                     },
                     opts),
                 std::runtime_error);
}

TEST(RunSweep, FoldRunsSeriallyInIndexOrder)
{
    sweep::SweepOptions opts;
    opts.threads = 8;
    std::vector<std::size_t> order;
    auto sum = sweep::runSweepFold<double>(
        32, 1,
        [](std::size_t i, std::uint64_t) {
            return static_cast<double>(i);
        },
        [&order](double &acc, double v, std::size_t i) {
            order.push_back(i);
            acc += v;
        },
        0.0, opts);
    EXPECT_DOUBLE_EQ(sum, 31.0 * 32.0 / 2.0);
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(DefaultThreads, HonorsEnvironmentOverride)
{
    ASSERT_EQ(setenv("BLITZ_SWEEP_THREADS", "3", 1), 0);
    EXPECT_EQ(sweep::defaultThreads(), 3u);
    ASSERT_EQ(unsetenv("BLITZ_SWEEP_THREADS"), 0);
    EXPECT_GE(sweep::defaultThreads(), 1u);
}

TEST(DefaultThreads, RejectsMalformedValuesWithAWarning)
{
    const std::size_t fallback = sweep::defaultThreads();
    for (const char *bad : {"banana", "0", "-3", "3x", " 3", "4294967296"}) {
        ASSERT_EQ(setenv("BLITZ_SWEEP_THREADS", bad, 1), 0);
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(sweep::defaultThreads(), fallback) << bad;
        EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                      "invalid BLITZ_SWEEP_THREADS"),
                  std::string::npos)
            << bad;
    }
    ASSERT_EQ(unsetenv("BLITZ_SWEEP_THREADS"), 0);
}

TEST(DefaultThreads, DividesOnlyByAValidShardCount)
{
    ASSERT_EQ(unsetenv("BLITZ_SWEEP_THREADS"), 0);
    const std::size_t hw = sweep::defaultThreads();
    ASSERT_EQ(setenv("BLITZ_SHARDS", "2", 1), 0);
    EXPECT_EQ(sweep::defaultThreads(), std::max<std::size_t>(1, hw / 2));
    // A malformed shard count falls back to 1: no division.
    ASSERT_EQ(setenv("BLITZ_SHARDS", "2abc", 1), 0);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(sweep::defaultThreads(), hw);
    (void)::testing::internal::GetCapturedStderr();
    ASSERT_EQ(unsetenv("BLITZ_SHARDS"), 0);
}

// ------------------------------------------------ determinism guarantee

/** Aggregate a small Monte-Carlo mesh sweep at a given thread count. */
bench::TrialStats
meshSweepAt(std::size_t threads)
{
    bench::TrialSetup setup;
    setup.d = 4;
    sweep::SweepOptions opts;
    opts.threads = threads;
    coin::EngineConfig cfg;
    return bench::sweepParallel(setup, cfg, /*trials=*/12,
                                /*rootSeed=*/7, opts);
}

TEST(Determinism, AggregateStatsBitIdenticalAcrossThreadCounts)
{
    auto serial = meshSweepAt(1);
    for (std::size_t threads : {2u, 8u}) {
        auto parallel = meshSweepAt(threads);
        // Exact (bit-level) comparisons on purpose: the harness
        // guarantees identical floating-point accumulation order.
        EXPECT_EQ(serial.failures, parallel.failures);
        EXPECT_EQ(serial.timeCycles.count(), parallel.timeCycles.count());
        EXPECT_EQ(serial.timeCycles.mean(), parallel.timeCycles.mean());
        EXPECT_EQ(serial.timeCycles.median(), parallel.timeCycles.median());
        EXPECT_EQ(serial.timeCycles.p95(), parallel.timeCycles.p95());
        EXPECT_EQ(serial.packets.mean(), parallel.packets.mean());
        EXPECT_EQ(serial.startError.mean(), parallel.startError.mean());
        EXPECT_EQ(serial.startError.variance(),
                  parallel.startError.variance());
        EXPECT_EQ(serial.finalMaxError.mean(),
                  parallel.finalMaxError.mean());
        EXPECT_EQ(serial.finalMaxError.max(),
                  parallel.finalMaxError.max());
    }
}

TEST(Determinism, RepeatedRunsIdentical)
{
    auto a = meshSweepAt(4);
    auto b = meshSweepAt(4);
    EXPECT_EQ(a.timeCycles.mean(), b.timeCycles.mean());
    EXPECT_EQ(a.packets.mean(), b.packets.mean());
}

// ----------------------------------------------------------- stat merges

TEST(PercentilesMerge, ReproducesSerialSampleSequence)
{
    sim::Percentiles serial, a, b;
    for (int i = 0; i < 10; ++i) {
        double x = i * 1.5;
        serial.add(x);
        (i < 5 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), serial.count());
    EXPECT_EQ(a.median(), serial.median());
    EXPECT_EQ(a.p99(), serial.p99());
    EXPECT_EQ(a.mean(), serial.mean());
}

} // namespace
