/**
 * @file
 * Replay-engine tests: scenario round-trip through the log header,
 * thread-count bit-identity of recorded sweeps, lockstep replay
 * verification, and divergence localization (diff + epoch bisection)
 * on a tampered recording — the ISSUE acceptance path, in-process.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "record/replay.hpp"

namespace {

using namespace blitz;
using record::FlightRecorder;
using record::ReplayScenario;

ReplayScenario
chaosScenario()
{
    ReplayScenario sc;
    sc.d = 4;
    sc.drop = 0.05;
    sc.crash = true;
    sc.partition = true;
    sc.seed = 7;
    sc.trials = 2;
    sc.snapshotEvery = 2'048;
    return sc;
}

FlightRecorder
recordWithThreads(const ReplayScenario &sc, std::size_t threads)
{
    sweep::SweepOptions opts;
    opts.threads = threads;
    return record::recordScenario(sc, opts);
}

TEST(Replay, ScenarioSurvivesTheLogHeaderRoundTrip)
{
    ReplayScenario sc = chaosScenario();
    sc.duplicate = 0.02;
    sc.corrupt = 0.01;
    sc.deadline = 123'456;
    std::string error;
    const auto unpacked = ReplayScenario::unpack(sc.pack(), error);
    ASSERT_TRUE(unpacked) << error;
    const ReplayScenario &back = *unpacked;
    EXPECT_EQ(back.d, sc.d);
    EXPECT_DOUBLE_EQ(back.drop, sc.drop);
    EXPECT_DOUBLE_EQ(back.duplicate, sc.duplicate);
    EXPECT_DOUBLE_EQ(back.corrupt, sc.corrupt);
    EXPECT_EQ(back.crash, sc.crash);
    EXPECT_EQ(back.partition, sc.partition);
    EXPECT_EQ(back.seed, sc.seed);
    EXPECT_EQ(back.trials, sc.trials);
    EXPECT_EQ(back.deadline, sc.deadline);
    EXPECT_EQ(back.snapshotEvery, sc.snapshotEvery);
}

TEST(Replay, RecordingIsBitIdenticalAcrossSweepThreadCounts)
{
    const ReplayScenario sc = chaosScenario();
    const FlightRecorder one = recordWithThreads(sc, 1);
    ASSERT_GT(one.size(), 0u);
    const FlightRecorder two = recordWithThreads(sc, 2);
    const FlightRecorder four = recordWithThreads(sc, 4);
    EXPECT_EQ(one.size(), two.size());
    EXPECT_EQ(one.digest(), two.digest());
    EXPECT_EQ(one.size(), four.size());
    EXPECT_EQ(one.digest(), four.digest());
}

TEST(Replay, LockstepVerifyMatchesACleanRecording)
{
    const ReplayScenario sc = chaosScenario();
    const FlightRecorder ref = recordWithThreads(sc, 2);
    for (std::size_t threads : {1u, 2u, 4u}) {
        sweep::SweepOptions opts;
        opts.threads = threads;
        const auto res = record::replayVerify(ref, sc, opts);
        EXPECT_TRUE(res.match) << "diverged at " << res.divergedAt
                               << " with " << threads << " threads";
        EXPECT_EQ(res.recordsChecked, ref.size());
    }
}

TEST(Replay, TamperedRecordingIsLocalizedByVerifyDiffAndBisect)
{
    const ReplayScenario sc = chaosScenario();
    const FlightRecorder clean = recordWithThreads(sc, 2);
    ASSERT_GT(clean.size(), 1'000u);

    FlightRecorder bad = recordWithThreads(sc, 2);
    const std::uint64_t idx = clean.size() / 2;
    ASSERT_TRUE(record::tamperRecord(bad, idx));

    // Lockstep replay pinpoints the exact record.
    const auto verify = record::replayVerify(bad, sc);
    EXPECT_FALSE(verify.match);
    EXPECT_EQ(verify.divergedAt, idx);

    // Linear diff agrees.
    const auto diff = record::diffRecordings(clean, bad);
    ASSERT_FALSE(diff.identical);
    EXPECT_EQ(diff.firstDiff, idx);

    // Epoch bisection lands on the same record with far fewer digest
    // probes than epochs, and quotes the divergent pair.
    const auto bisect = record::bisectRecordings(clean, bad);
    ASSERT_TRUE(bisect.diverged);
    EXPECT_EQ(bisect.firstDiff, idx);
    EXPECT_GE(bisect.firstDiff, bisect.windowBegin);
    EXPECT_LT(bisect.firstDiff, bisect.windowEnd);
    EXPECT_FALSE(bisect.context.empty());
    EXPECT_NE(bisect.context.find("A:"), std::string::npos);
    EXPECT_NE(bisect.context.find("B:"), std::string::npos);

    // Identical recordings bisect to "no divergence".
    const auto same = record::bisectRecordings(clean, clean);
    EXPECT_FALSE(same.diverged);
}

TEST(Replay, TamperIndexOutOfRangeIsRejected)
{
    FlightRecorder rec;
    rec.mint(0, 0, 4);
    EXPECT_TRUE(record::tamperRecord(rec, 0));
    EXPECT_FALSE(record::tamperRecord(rec, 1));
}

TEST(Replay, RetiredKindOneReadsAsAnUnassignedKind)
{
    // Kind byte 1 (the retired Transfer) may still sit in old logs. It
    // must read like any other unassigned byte: no name, no payload in
    // the rendered line, and no tiles, so a bisection at such a record
    // quotes none of the earlier records about tiles 1 and 2.
    for (unsigned byte : {1u, 200u}) {
        record::Record r;
        r.tick = 5;
        r.kind = static_cast<record::RecordKind>(byte);
        r.p0 = 1;
        r.p1 = 2;
        r.p2 = 3;
        r.p3 = 4;
        EXPECT_STREQ(record::recordKindName(r.kind), "?") << byte;
        EXPECT_EQ(record::describeRecord(r, 0),
                  "#0 @5 lane 0 ?" + std::string(12, ' '))
            << byte;

        record::Record mint;
        mint.kind = record::RecordKind::Mint;
        FlightRecorder a;
        FlightRecorder b;
        for (std::int64_t tile : {1, 2}) {
            mint.p0 = tile;
            a.append(mint);
            b.append(mint);
        }
        a.append(r);
        ++r.p3;
        b.append(r);
        const auto bisect = record::bisectRecordings(a, b);
        ASSERT_TRUE(bisect.diverged) << byte;
        EXPECT_EQ(bisect.firstDiff, 2u) << byte;
        EXPECT_EQ(bisect.context.find("..."), std::string::npos)
            << byte << ": " << bisect.context;
    }
}

} // namespace
