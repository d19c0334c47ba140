/**
 * @file
 * End-to-end exercise of the installed `blitz-top` binary (path
 * injected at compile time via BLITZ_TOP_TOOL): record a skewed
 * run's HealthReport, render its summary, and check the diff verdict's
 * exit-code contract — identical deterministic sections exit 0, a
 * different seed exits 1, usage and I/O errors exit 2.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace {

/** Run `blitz-top <args>`, capture combined output, return exit code. */
int
runTool(const std::string &args, std::string *output = nullptr)
{
    // PID-unique capture path: ctest runs this suite's tests as
    // concurrent processes, and a shared file would interleave them.
    const std::string outPath = testing::TempDir() + "blitz_top_out." +
                                std::to_string(getpid()) + ".txt";
    const std::string cmd = std::string(BLITZ_TOP_TOOL) + " " + args +
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

/** The small recording scenario every test below shares. */
const char *kScenario = "--d 8 --ticks 20000 --seed 11";

TEST(ProfTool, RecordThenSummaryRender)
{
    const std::string rep = testing::TempDir() + "top_record.json";
    std::string out;
    ASSERT_EQ(runTool("record " + rep + " " + kScenario, &out), 0)
        << out;
    EXPECT_NE(out.find("wrote"), std::string::npos);

    // The written document is a parseable HealthReport whose summary
    // prints both sections, the domain outcomes and the engine gauges.
    EXPECT_EQ(runTool("summary " + rep, &out), 0) << out;
    EXPECT_NE(out.find("deterministic"), std::string::npos);
    EXPECT_NE(out.find("wallclock"), std::string::npos);
    EXPECT_NE(out.find("coin.total"), std::string::npos);
    EXPECT_NE(out.find("queue.executed"), std::string::npos);
    std::remove(rep.c_str());
}

TEST(ProfTool, DiffIsCleanForARepeatAndFlagsALayoutChange)
{
    const std::string a = testing::TempDir() + "top_a.json";
    const std::string b = testing::TempDir() + "top_b.json";
    const std::string c = testing::TempDir() + "top_c.json";
    std::string out;
    ASSERT_EQ(runTool("record " + a + " " + kScenario, &out), 0) << out;
    ASSERT_EQ(runTool("record " + b + " " + kScenario, &out), 0) << out;

    // Same config, same seed: deterministic sections are identical —
    // including the wall-clock-free engine gauges — so diff exits 0.
    EXPECT_EQ(runTool("diff " + a + " " + b, &out), 0) << out;
    EXPECT_NE(out.find("identical"), std::string::npos);

    // A different seed keeps the conserved coin total but moves the
    // exchange counts, so diff exits 1 and names those keys.
    ASSERT_EQ(runTool("record " + c + " --d 8 --ticks 20000 --seed 12",
                      &out),
              0)
        << out;
    EXPECT_EQ(runTool("diff " + a + " " + c, &out), 1) << out;
    EXPECT_NE(out.find("exchanges."), std::string::npos);
    EXPECT_EQ(out.find("coin.total"), std::string::npos)
        << "the conserved coin total moved with the seed:\n" << out;

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

TEST(ProfTool, UsageAndIoErrorsExitTwo)
{
    std::string out;
    EXPECT_EQ(runTool("", &out), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
    EXPECT_EQ(runTool("frobnicate", &out), 2);
    EXPECT_EQ(runTool("summary " + testing::TempDir() +
                          "definitely_missing.json",
                      &out),
              2)
        << out;
    EXPECT_EQ(runTool("diff onlyone.json", &out), 2);

    // A truncated document is an I/O error, not a crash.
    const std::string broken = testing::TempDir() + "top_broken.json";
    std::ofstream(broken) << "{\"blitzHealth\":1,\"run\":\"x";
    EXPECT_EQ(runTool("summary " + broken, &out), 2) << out;
    std::remove(broken.c_str());
}

TEST(ProfTool, RecordRejectsOutOfRangeCountsNamingTheFlag)
{
    // A mesh past the node ceiling and a seed past 64 bits must exit
    // 2 before any cluster is built — not abort, and not
    // wrap to a small count the report would then mislabel. A flag
    // the tool does not have (--stride) is refused the same way.
    const std::string rep = testing::TempDir() + "top_bad_flags.json";
    struct Case
    {
        const char *args;
        const char *flag;
    };
    for (const Case &c : {Case{"--d 2000", "--d"},
                          Case{"--seed 18446744073709551616", "--seed"},
                          Case{"--ticks -5", "--ticks"},
                          Case{"--d 8x", "--d"},
                          Case{"--stride 4", "--stride"}}) {
        std::string out;
        EXPECT_EQ(runTool("record " + rep + " " + c.args, &out), 2)
            << c.args << "\n" << out;
        EXPECT_NE(out.find(c.flag), std::string::npos)
            << c.args << "\n" << out;
        EXPECT_EQ(out.find("wrote"), std::string::npos) << out;
    }
    std::remove(rep.c_str());
}

} // namespace
