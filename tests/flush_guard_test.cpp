/**
 * @file
 * Crash-safe flush tests: FlushGuard must persist *valid* JSON
 * documents of whatever a tracer/health report captured so far, both from
 * an explicit flushAll() and from the fatal-signal path (exercised in
 * a death-test child so the re-raise semantics are observed too).
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "trace/flush_guard.hpp"
#include "trace/health.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace blitz;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Structural sanity for a flushed JSON document: non-empty, starts as
 * an object/array, and every brace/bracket opened outside a string is
 * closed. (trace_plane_test carries the full recursive validator; the
 * flush path reuses the same writers, so balance + landmarks suffice.)
 */
bool
balancedJson(const std::string &s)
{
    if (s.empty() || (s.front() != '{' && s.front() != '['))
        return false;
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !inString;
}

TEST(FlushGuard, FlushAllWritesValidDocumentsMidCapture)
{
    trace::Tracer t;
    t.complete("test", "half_done", 0, 100, 200, {{"k", "v"}});
    t.instant("test", "mark", 0, 150);

    trace::HealthReport report;
    report.setRun("mid_capture");
    report.bumpDet("events", 3);
    report.bumpDet("events", 2);

    const std::string jsonPath =
        testing::TempDir() + "flush_guard_trace.json";
    const std::string healthPath =
        testing::TempDir() + "flush_guard_health.json";
    auto g1 = trace::FlushGuard::guardTracer(t, jsonPath);
    auto g2 = trace::FlushGuard::guardHealth(report, healthPath);
    ASSERT_TRUE(g1);
    ASSERT_TRUE(g2);

    const std::uint64_t before = trace::FlushGuard::flushCount();
    trace::FlushGuard::flushAll();
    EXPECT_EQ(trace::FlushGuard::flushCount(), before + 1);

    const std::string json = slurp(jsonPath);
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("half_done"), std::string::npos);

    const std::string health = slurp(healthPath);
    EXPECT_TRUE(balancedJson(health)) << health;
    EXPECT_NE(health.find("mid_capture"), std::string::npos);
    EXPECT_NE(health.find("\"events\":5"), std::string::npos) << health;

    // A second pass re-runs the current set — still valid documents.
    trace::FlushGuard::flushAll();
    EXPECT_TRUE(balancedJson(slurp(jsonPath)));

    std::remove(jsonPath.c_str());
    std::remove(healthPath.c_str());
}

TEST(FlushGuard, ReleasedRegistrationsNoLongerFlush)
{
    trace::Tracer t;
    t.instant("test", "once", 0, 1);
    const std::string path =
        testing::TempDir() + "flush_guard_released.json";

    auto g = trace::FlushGuard::guardTracer(t, path);
    g.release();
    EXPECT_FALSE(g);
    trace::FlushGuard::flushAll();
    std::ifstream in(path);
    EXPECT_FALSE(in.good()) << "released guard still wrote " << path;

    // Scope exit deregisters too (RAII).
    {
        auto scoped = trace::FlushGuard::guardTracer(t, path);
        ASSERT_TRUE(scoped);
    }
    trace::FlushGuard::flushAll();
    std::ifstream again(path);
    EXPECT_FALSE(again.good()) << "destroyed guard still wrote " << path;
    std::remove(path.c_str());
}

TEST(FlushGuard, MoveTransfersOwnershipOfTheRegistration)
{
    trace::Tracer t;
    t.instant("test", "moved", 0, 1);
    const std::string path =
        testing::TempDir() + "flush_guard_moved.json";

    auto g = trace::FlushGuard::guardTracer(t, path);
    trace::FlushGuard::Registration stolen = std::move(g);
    EXPECT_FALSE(g);
    ASSERT_TRUE(stolen);
    trace::FlushGuard::flushAll();
    EXPECT_TRUE(balancedJson(slurp(path)));
    std::remove(path.c_str());
}

using FlushGuardDeathTest = ::testing::Test;

TEST(FlushGuardDeathTest, FatalSignalFlushesThenDiesWithTheSignal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "flush_guard_signal.json";
    std::remove(path.c_str());

    EXPECT_EXIT(
        {
            trace::Tracer t;
            t.complete("crash", "in_flight", 0, 10, 20);
            trace::FlushGuard::installSignalHandlers();
            auto g = trace::FlushGuard::guardTracer(t, path);
            std::raise(SIGTERM);
            g.release(); // not reached
        },
        testing::KilledBySignal(SIGTERM), "");

    // The child flushed before re-raising: a complete document of the
    // partial capture survives on disk.
    const std::string json = slurp(path);
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("in_flight"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
