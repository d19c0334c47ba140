/**
 * @file
 * The bench/example observation path (bench/bench_obs.hpp): the
 * exact-match flag parser with its per-binary output mask, and the
 * session that folds trial captures into the output files.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench_obs.hpp"

namespace {

using namespace blitz;
namespace fs = std::filesystem;

/** parseObsFlags over @p args (argv[0] prepended). */
bench::ObsFlags
parse(std::vector<std::string> args, unsigned supported = bench::kObsAll)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::parseObsFlags(static_cast<int>(argv.size()),
                                argv.data(), supported);
}

std::string
slurp(const fs::path &p)
{
    std::ostringstream os;
    os << std::ifstream(p).rdbuf();
    return os.str();
}

TEST(ObsFlags, AcceptsExactFlagsWithOptionalPaths)
{
    EXPECT_FALSE(parse({}).any());
    const bench::ObsFlags f =
        parse({"--metrics", "--trace=t/run.json", "--health=h.json"});
    EXPECT_TRUE(f.metrics && f.trace && f.health);
    EXPECT_EQ(f.metricsPath, "metrics.csv");
    EXPECT_EQ(f.tracePath, "t/run.json");
    EXPECT_EQ(f.healthPath, "h.json");
}

TEST(ObsFlags, RejectsLookalikesAndEmptyPaths)
{
    for (const char *bad : {"--tracer", "--metrics-out=x", "--healthy",
                            "--trace=", "-trace", "trace"}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(parse({bad}), ::testing::ExitedWithCode(2),
                    "bad argument");
    }
}

TEST(ObsFlags, UnsupportedOutputIsDroppedWithOneStderrNote)
{
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const bench::ObsFlags f =
        parse({"--metrics=m.csv", "--trace"}, bench::kObsMetrics);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "note: --trace ignored: this binary does not write that "
              "output\n");
    EXPECT_TRUE(f.metrics);
    EXPECT_EQ(f.metricsPath, "m.csv");
    EXPECT_FALSE(f.trace);
}

/** A sweep row: one sample per trial plus its capture. */
struct Row
{
    int trials = 0;
    bench::ObsCapture obs;

    void
    merge(Row &&o)
    {
        trials += o.trials;
        obs.merge(std::move(o.obs));
    }
};

TEST(ObsSession, FoldsSweepCapturesIntoTaggedAndMergedFiles)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("bench_obs_test." + std::to_string(::getpid()));
    fs::create_directories(dir);
    bench::ObsFlags flags;
    flags.metrics = flags.trace = flags.health = true;
    flags.metricsPath = (dir / "m.csv").string();
    flags.tracePath = (dir / "t.json").string();
    flags.healthPath = (dir / "h.json").string();

    std::vector<std::uint32_t> lanes;
    ::testing::internal::CaptureStdout();
    {
        bench::ObsSession obs(flags, "bench_obs_test");
        auto trial = [&obs](std::uint64_t, std::uint32_t pid) {
            Row r;
            r.trials = 1;
            trace::Registry reg;
            reg.sampled("v", [] { return 1.0; });
            reg.sample(0);
            r.obs.metrics = reg.takeSeries();
            r.obs.openTracer(obs.flags(), pid)->instant("t", "x", 0, pid);
            r.obs.health.bumpDet("trials", 1.0);
            return r;
        };
        for (const char *tag : {"s00", "", ""}) {
            Row row = obs.sweepFold(3, 7, Row{}, trial);
            EXPECT_EQ(row.trials, 3);
            for (const auto &[pid, t] : row.obs.tracers)
                lanes.push_back(pid);
            obs.absorb(row.obs, tag);
        }
        obs.finish();
    }
    const std::string out = ::testing::internal::GetCapturedStdout();

    // Lanes continue across sweeps; untagged series merge into one CSV.
    EXPECT_EQ(lanes,
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(slurp(dir / "m-s00.csv"), "tick,cov,v\n0,3,3\n");
    EXPECT_EQ(slurp(dir / "m.csv"), "tick,cov,v\n0,6,6\n");
    EXPECT_NE(slurp(dir / "t.json").find("\"pid\":8"), std::string::npos);
    trace::HealthReport health;
    std::ifstream hs(dir / "h.json");
    ASSERT_TRUE(health.parse(hs));
    EXPECT_EQ(health.run(), "bench_obs_test");
    ASSERT_EQ(health.deterministic().size(), 1u);
    EXPECT_EQ(health.deterministic()[0].second, 9.0);
    EXPECT_EQ(health.wallclock().size(), 5u); // sweep.* pool keys
    EXPECT_NE(out.find("wrote " + flags.healthPath), std::string::npos);
    fs::remove_all(dir);
}

TEST(ObsSession, WritesNothingWithoutFlags)
{
    ::testing::internal::CaptureStdout();
    bench::ObsFlags flags;
    flags.metricsPath = "/nonexistent/m.csv";
    bench::ObsSession obs(flags, "bench_obs_test");
    bench::ObsCapture cap;
    trace::Registry reg;
    reg.sampled("v", [] { return 1.0; });
    reg.sample(0);
    cap.metrics = reg.takeSeries();
    obs.absorb(cap, "s00");
    obs.absorb(cap);
    obs.finish();
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
}

} // namespace
