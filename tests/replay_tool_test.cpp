/**
 * @file
 * End-to-end exercise of the installed `blitz-replay` binary (path
 * injected at compile time via BLITZ_REPLAY_TOOL): record a chaos
 * scenario to disk, verify it in lockstep, then record a tampered twin
 * and prove `bisect` exits 1 and names the exact divergent record.
 * Hostile inputs — crafted log headers and out-of-range record flags —
 * must be refused with exit 2, never reach an internal assert.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "record/recorder.hpp"
#include "record/replay.hpp"

namespace {

/** Run `blitz-replay <args>`, capture combined output, return exit code. */
int
runTool(const std::string &args, std::string *output = nullptr)
{
    // PID-unique capture path: ctest runs this suite's tests as
    // concurrent processes, and a shared file would interleave them.
    const std::string outPath = testing::TempDir() + "replay_tool_out." +
                                std::to_string(getpid()) + ".txt";
    const std::string cmd = std::string(BLITZ_REPLAY_TOOL) + " " + args +
                            " > " + outPath + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (output) {
        std::ifstream in(outPath);
        std::ostringstream ss;
        ss << in.rdbuf();
        *output = ss.str();
    }
    std::remove(outPath.c_str());
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return -1;
}

const char *kScenario =
    "--d 4 --drop 0.05 --crash --partition --seed 7 --trials 2";

TEST(ReplayTool, RecordThenVerifyRoundTrips)
{
    const std::string log = testing::TempDir() + "tool_clean.blzr";
    std::string out;
    ASSERT_EQ(runTool("record " + log + " " + std::string(kScenario),
                      &out),
              0)
        << out;
    EXPECT_NE(out.find("recorded"), std::string::npos);
    EXPECT_NE(out.find("digest"), std::string::npos);

    EXPECT_EQ(runTool("info " + log, &out), 0) << out;
    EXPECT_NE(out.find("records"), std::string::npos);

    // Lockstep re-execution matches at several thread counts.
    EXPECT_EQ(runTool("verify " + log + " --threads 1", &out), 0) << out;
    EXPECT_EQ(runTool("verify " + log + " --threads 4", &out), 0) << out;
    EXPECT_NE(out.find("lockstep match"), std::string::npos);

    // A log diffed against itself is identical (exit 0).
    EXPECT_EQ(runTool("diff " + log + " " + log, &out), 0) << out;
    EXPECT_NE(out.find("identical"), std::string::npos);
    std::remove(log.c_str());
}

TEST(ReplayTool, BisectPinpointsTheFirstDivergentEvent)
{
    const std::string clean = testing::TempDir() + "tool_a.blzr";
    const std::string tampered = testing::TempDir() + "tool_b.blzr";
    const std::string scenario(kScenario);
    std::string out;
    ASSERT_EQ(runTool("record " + clean + " " + scenario, &out), 0)
        << out;
    ASSERT_EQ(runTool("record " + tampered + " " + scenario +
                          " --tamper 1000",
                      &out),
              0)
        << out;
    EXPECT_NE(out.find("tampered record #1000"), std::string::npos);

    // Divergence is exit code 1, and the report names record #1000.
    EXPECT_EQ(runTool("diff " + clean + " " + tampered, &out), 1) << out;
    EXPECT_NE(out.find("record #1000"), std::string::npos);

    EXPECT_EQ(runTool("bisect " + clean + " " + tampered, &out), 1)
        << out;
    EXPECT_NE(out.find("first divergence: record #1000"),
              std::string::npos);
    EXPECT_NE(out.find("A:"), std::string::npos);
    EXPECT_NE(out.find("B:"), std::string::npos);

    // The --bisect spelling is accepted too.
    EXPECT_EQ(runTool("--bisect " + clean + " " + tampered, &out), 1)
        << out;
    EXPECT_NE(out.find("first divergence: record #1000"),
              std::string::npos);

    // Tampering breaks lockstep verification of the tampered log.
    EXPECT_EQ(runTool("verify " + tampered, &out), 1) << out;
    EXPECT_NE(out.find("DIVERGED at record #1000"), std::string::npos);

    std::remove(clean.c_str());
    std::remove(tampered.c_str());
}

TEST(ReplayTool, UsageAndIoErrorsExitTwo)
{
    std::string out;
    EXPECT_EQ(runTool("", &out), 2);
    EXPECT_EQ(runTool("frobnicate", &out), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
    EXPECT_EQ(runTool("verify " + testing::TempDir() +
                          "definitely_missing.blzr",
                      &out),
              2)
        << out;
}

/** Header word holding the bit pattern of @p v. */
std::uint64_t
doubleWord(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

TEST(ReplayTool, CraftedHeadersAreRefused)
{
    const std::string log = testing::TempDir() + "tool_bad_header.blzr";
    const blitz::record::LogHeader good =
        blitz::record::ReplayScenario{}.pack();
    struct Case
    {
        const char *what;
        std::size_t word;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"d=0", 0, 0},
        {"d=1", 0, 1},
        {"d*d past the mesh ceiling", 0, 1024},
        {"d near 2^32", 0, (std::uint64_t{1} << 32) + 2},
        {"NaN drop", 1, doubleWord(std::numeric_limits<double>::quiet_NaN())},
        {"negative duplicate", 2, doubleWord(-0.1)},
        {"corrupt above 1", 3, doubleWord(1.5)},
        {"unknown flag bits", 4, 4},
        {"zero trials", 6, 0},
        {"trials past 2^32", 6, std::uint64_t{1} << 32},
    };
    for (const Case &c : cases) {
        blitz::record::LogHeader h = good;
        h[c.word] = c.value;
        ASSERT_TRUE(blitz::record::FlightRecorder{}.writeFile(log, h))
            << c.what;
        std::string out;
        EXPECT_EQ(runTool("info " + log, &out), 2) << c.what << "\n" << out;
        EXPECT_NE(out.find("invalid scenario"), std::string::npos)
            << c.what << "\n" << out;
        EXPECT_EQ(runTool("verify " + log, &out), 2)
            << c.what << "\n" << out;
        EXPECT_NE(out.find("invalid scenario"), std::string::npos)
            << c.what << "\n" << out;
        EXPECT_EQ(out.find("panic"), std::string::npos) << out;
    }
    std::remove(log.c_str());
}

TEST(ReplayTool, RecordRefusesInvalidScenarioFlags)
{
    const std::string log = testing::TempDir() + "tool_bad_flags.blzr";
    for (const char *flags :
         {"--d 1", "--d 4294967298", "--drop nan", "--dup 2",
          "--corrupt -1", "--trials 0", "--deadline -1",
          "--snapshot-every -1", "--d abc"}) {
        std::string out;
        EXPECT_EQ(runTool("record " + log + " " + flags, &out), 2)
            << flags << "\n" << out;
        EXPECT_NE(out.find("invalid scenario"), std::string::npos)
            << flags << "\n" << out;
    }
    std::remove(log.c_str());
}

} // namespace
