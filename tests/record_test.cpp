/**
 * @file
 * Unit tests of the flight-recorder core (chunked append, ring
 * recycling, lane absorption, lockstep checking, file round-trip).
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "record/recorder.hpp"

namespace {

using namespace blitz;
using record::FlightRecorder;
using record::Record;
using record::RecordKind;

Record
numbered(std::uint64_t i)
{
    Record r;
    r.tick = i;
    r.kind = RecordKind::Exchange;
    r.p0 = static_cast<std::int64_t>(i);
    r.p1 = static_cast<std::int64_t>(i * 3);
    return r;
}

// ------------------------------------------------------------ recorder

TEST(FlightRecorder, AppendsAcrossChunkBoundaries)
{
    FlightRecorder::Config cfg;
    cfg.chunkRecords = 8;
    FlightRecorder rec(cfg);
    for (std::uint64_t i = 0; i < 37; ++i)
        rec.append(numbered(i));
    ASSERT_EQ(rec.size(), 37u);
    EXPECT_EQ(rec.totalAppended(), 37u);
    EXPECT_EQ(rec.droppedOldest(), 0u);
    for (std::uint64_t i = 0; i < 37; ++i)
        EXPECT_EQ(rec.at(i).tick, i);
}

TEST(FlightRecorder, RingModeRecyclesOldestWholeChunks)
{
    FlightRecorder::Config cfg;
    cfg.chunkRecords = 4;
    cfg.maxChunks = 3; // retains at most 12 records
    FlightRecorder rec(cfg);
    for (std::uint64_t i = 0; i < 40; ++i)
        rec.append(numbered(i));
    EXPECT_EQ(rec.totalAppended(), 40u);
    EXPECT_LE(rec.size(), 12u);
    EXPECT_EQ(rec.totalAppended(),
              rec.droppedOldest() + rec.size());
    EXPECT_EQ(rec.baseIndex(), rec.droppedOldest());
    // The retained window is the contiguous tail of the stream.
    for (std::size_t i = 0; i < rec.size(); ++i)
        EXPECT_EQ(rec.at(i).tick, rec.baseIndex() + i);
}

TEST(FlightRecorder, AbsorbRestampsLanesInReplicationOrder)
{
    FlightRecorder a, b, merged;
    a.mint(10, 0, 16);
    b.mint(20, 1, 8);
    merged.absorb(a, 0);
    merged.absorb(b, 1);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.at(0).lane, 0u);
    EXPECT_EQ(merged.at(1).lane, 1u);
    EXPECT_EQ(merged.at(1).tick, 20u);

    // Absorbing the same lanes in the same order reproduces the same
    // digest — the sweep-merge determinism contract.
    FlightRecorder again;
    again.absorb(a, 0);
    again.absorb(b, 1);
    EXPECT_EQ(merged.digest(), again.digest());

    // Order (and lane stamping) are part of the stream identity.
    FlightRecorder swapped;
    swapped.absorb(b, 0);
    swapped.absorb(a, 1);
    EXPECT_NE(merged.digest(), swapped.digest());
}

TEST(FlightRecorder, DigestIsOrderAndPayloadSensitive)
{
    FlightRecorder a, b;
    a.append(numbered(5));
    b.append(numbered(5));
    EXPECT_EQ(a.digest(), b.digest());
    b.mutableAt(0).p2 ^= 1;
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FlightRecorder, LockstepLatchesTheFirstMismatch)
{
    FlightRecorder ref;
    for (std::uint64_t i = 0; i < 6; ++i)
        ref.append(numbered(i));

    FlightRecorder live;
    live.beginLockstep(&ref);
    for (std::uint64_t i = 0; i < 3; ++i)
        live.append(numbered(i));
    EXPECT_FALSE(live.diverged());

    Record wrong = numbered(3);
    wrong.p1 = -1;
    live.append(wrong);
    EXPECT_TRUE(live.diverged());
    EXPECT_EQ(live.divergedAt(), 3u);

    // The latch holds even if later records happen to match again.
    live.append(numbered(4));
    EXPECT_TRUE(live.diverged());
    EXPECT_EQ(live.divergedAt(), 3u);
}

TEST(FlightRecorder, LockstepFlagsAppendsPastTheReferenceEnd)
{
    FlightRecorder ref;
    ref.append(numbered(0));
    FlightRecorder live;
    live.beginLockstep(&ref);
    live.append(numbered(0));
    EXPECT_FALSE(live.diverged());
    live.append(numbered(1)); // the log has no record #1
    EXPECT_TRUE(live.diverged());
    EXPECT_EQ(live.divergedAt(), 1u);
}

TEST(FlightRecorder, FileRoundTripPreservesStreamAndHeader)
{
    FlightRecorder rec;
    rec.mint(0, 0, 16);
    rec.burn(100, 1, 4);
    rec.pmActuation(200, 1, 787.5);
    record::LogHeader header{};
    header[0] = 0xfeedface;
    header[15] = 42;

    const std::string path =
        testing::TempDir() + "record_roundtrip.blzr";
    ASSERT_TRUE(rec.writeFile(path, header));

    FlightRecorder in;
    record::LogHeader got{};
    ASSERT_TRUE(FlightRecorder::readFile(path, in, &got));
    EXPECT_EQ(got[0], 0xfeedfaceu);
    EXPECT_EQ(got[15], 42u);
    ASSERT_EQ(in.size(), rec.size());
    EXPECT_EQ(in.digest(), rec.digest());
    EXPECT_EQ(in.at(2).p1, 787'500); // milli-MHz encoding survived

    std::remove(path.c_str());
    FlightRecorder missing;
    EXPECT_FALSE(FlightRecorder::readFile(path, missing, nullptr));
}

} // namespace
