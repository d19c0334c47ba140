/**
 * @file
 * The one observation path for the bench and example binaries.
 *
 * `--metrics[=PATH]` writes metric snapshot CSVs, `--trace[=PATH]` one
 * Chrome/Perfetto trace.json with a process lane per replication, and
 * `--health[=PATH]` the run's HealthReport (deterministic outcome
 * counters plus sweep-pool utilization) that blitz-top renders. Every
 * output is folded in replication order, so the files are
 * bit-identical at any thread count. Without the flags nothing is
 * attached and the runs stay on the null-hook fast path: the flags
 * never change a printed number.
 *
 * parseObsFlags reads the flags; a trial records into an ObsCapture;
 * the binary's one ObsSession absorbs the captures and writes the
 * files.
 */

#ifndef BLITZ_BENCH_OBS_HPP
#define BLITZ_BENCH_OBS_HPP

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sweep/sweep.hpp"
#include "trace/flush_guard.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace blitz::bench {

/** Outputs a binary can write: the @p supported mask of parseObsFlags. */
enum ObsOutput : unsigned
{
    kObsMetrics = 1u << 0,
    kObsTrace = 1u << 1,
    kObsHealth = 1u << 2,
    kObsAll = kObsMetrics | kObsTrace | kObsHealth,
};

/** Parsed --metrics/--trace/--health options. */
struct ObsFlags
{
    bool metrics = false;
    bool trace = false;
    bool health = false;
    std::string metricsPath = "metrics.csv";
    std::string tracePath = "trace.json";
    std::string healthPath = "health.json";

    bool any() const { return metrics || trace || health; }
};

/**
 * Parse argv. Every argument must be exactly `--metrics`, `--trace` or
 * `--health`, optionally with `=PATH` (PATH non-empty); anything else
 * (`--tracer`, `--trace=`, a stray word) prints a usage line and exits
 * 2. A flag for an output outside @p supported (an ObsOutput mask) is
 * dropped with one note on stderr.
 */
inline ObsFlags
parseObsFlags(int argc, char **argv, unsigned supported)
{
    ObsFlags f;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto match = [&](std::string_view name, ObsOutput output,
                         bool &on, std::string &path) {
            const std::size_t n = name.size();
            if (arg != name && !(arg.size() > n + 1 &&
                                 arg.starts_with(name) && arg[n] == '='))
                return false;
            if (!(supported & output)) {
                std::fprintf(stderr,
                             "note: %s ignored: this binary does not "
                             "write that output\n",
                             std::string(name).c_str());
            } else {
                on = true;
                if (arg != name)
                    path = arg.substr(n + 1);
            }
            return true;
        };
        if (!match("--metrics", kObsMetrics, f.metrics, f.metricsPath) &&
            !match("--trace", kObsTrace, f.trace, f.tracePath) &&
            !match("--health", kObsHealth, f.health, f.healthPath)) {
            std::fprintf(stderr,
                         "%s: bad argument '%s'\nusage: %s "
                         "[--metrics[=PATH]] [--trace[=PATH]] "
                         "[--health[=PATH]]\n",
                         argv[0], argv[i], argv[0]);
            std::exit(2);
        }
    }
    return f;
}

/** Insert @p tag before the path's extension: a.csv -> a-4x4.csv. */
inline std::string
tagPath(const std::string &path, const std::string &tag)
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
        return path + "-" + tag;
    return path.substr(0, dot) + "-" + tag + path.substr(dot);
}

/** What one trial observed; sweep rows fold it with merge(). */
struct ObsCapture
{
    trace::MetricsSeries metrics;
    /// One tracer per trial, keyed by its trace process lane.
    std::vector<std::pair<std::uint32_t, std::shared_ptr<trace::Tracer>>>
        tracers;
    trace::HealthReport health;

    /**
     * A fresh tracer on lane @p pid, owned by this capture (on the heap,
     * so moving the capture keeps the pointer valid); nullptr unless
     * @p flags asks for a trace.
     */
    trace::Tracer *
    openTracer(const ObsFlags &flags, std::uint32_t pid)
    {
        if (!flags.trace)
            return nullptr;
        tracers.emplace_back(pid, std::make_shared<trace::Tracer>());
        return tracers.back().second.get();
    }

    void
    merge(ObsCapture &&o)
    {
        metrics.merge(o.metrics);
        for (auto &t : o.tracers)
            tracers.push_back(std::move(t));
        health.absorb(o.health);
    }
};

/**
 * The run-level sink, one per main(). Construction installs the
 * fatal-signal flush and guards the trace and health files, so a run
 * killed mid-sweep still leaves valid JSON of what was absorbed.
 */
class ObsSession
{
  public:
    /** @p run labels the health report. */
    ObsSession(ObsFlags flags, std::string run) : flags_(std::move(flags))
    {
        if (flags_.any())
            trace::FlushGuard::installSignalHandlers();
        if (flags_.trace)
            traceFlush_ =
                trace::FlushGuard::guardTracer(trace_, flags_.tracePath);
        if (flags_.health) {
            health_.setRun(std::move(run));
            healthFlush_ =
                trace::FlushGuard::guardHealth(health_, flags_.healthPath);
        }
    }

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    const ObsFlags &flags() const { return flags_; }

    /**
     * Take in one capture. With a @p tag its series goes to its own CSV
     * now (per-tile schemas differ between scenarios); without one it
     * merges into the run's single CSV, which finish() writes. Tracers
     * join the run trace on their lanes; health counters fold in.
     */
    void
    absorb(const ObsCapture &cap, const std::string &tag = {})
    {
        if (flags_.metrics && !cap.metrics.empty()) {
            if (tag.empty())
                metrics_.merge(cap.metrics);
            else
                writeMetrics(cap.metrics, tagPath(flags_.metricsPath, tag));
        }
        for (const auto &[pid, t] : cap.tracers)
            trace_.absorb(*t, pid);
        if (flags_.health)
            health_.absorb(cap.health);
    }

    /**
     * Run @p trials replications of `trial(seed, pid)` on the sweep
     * harness and fold their rows into @p acc in replication order
     * (Row::merge). Each trial gets its own trace lane, numbered on
     * from the previous call's. The pool's utilization goes to the
     * health report's wallclock section only (thread count included),
     * so the deterministic section is identical at any thread count.
     */
    template <class Row, class Trial>
    Row
    sweepFold(std::size_t trials, std::uint64_t rootSeed, Row acc,
              Trial trial)
    {
        sweep::PoolStats pool;
        sweep::SweepOptions opts;
        opts.stats = flags_.health ? &pool : nullptr;
        const std::uint32_t base = lanes_;
        lanes_ += static_cast<std::uint32_t>(trials);
        Row row = sweep::runSweepFold<Row>(
            trials, rootSeed,
            [&trial, base](std::size_t i, std::uint64_t seed) {
                return trial(seed, base + static_cast<std::uint32_t>(i));
            },
            [](Row &a, Row &r, std::size_t) { a.merge(std::move(r)); },
            std::move(acc), opts);
        pool_.merge(pool);
        return row;
    }

    /** Write the untagged CSV, trace.json and health.json (as enabled). */
    void
    finish()
    {
        if (!metrics_.empty())
            writeMetrics(metrics_, flags_.metricsPath);
        if (flags_.trace) {
            traceFlush_.release();
            write(flags_.tracePath, [this](std::ostream &os) {
                trace_.writeJson(os);
                return std::to_string(trace_.eventCount()) + " events" +
                       (trace_.droppedEvents() ? ", overflow dropped some"
                                               : "");
            });
        }
        if (flags_.health) {
            healthFlush_.release();
            if (pool_.replications > 0)
                fillPoolHealth();
            write(flags_.healthPath, [this](std::ostream &os) {
                health_.writeJson(os);
                return std::to_string(health_.deterministic().size()) +
                       " deterministic, " +
                       std::to_string(health_.wallclock().size()) +
                       " wallclock keys";
            });
        }
    }

  private:
    /** Write @p path with @p emit, which returns the "wrote" summary. */
    template <class Emit>
    static void
    write(const std::string &path, Emit emit)
    {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return;
        }
        const std::string what = emit(os);
        std::printf("wrote %s (%s)\n", path.c_str(), what.c_str());
    }

    static void
    writeMetrics(const trace::MetricsSeries &series,
                 const std::string &path)
    {
        write(path, [&series](std::ostream &os) {
            series.writeCsv(os);
            return std::to_string(series.snapshots().size()) +
                   " snapshots";
        });
    }

    void
    fillPoolHealth()
    {
        health_.bumpWall("sweep.threads",
                         static_cast<double>(pool_.threads));
        health_.bumpWall("sweep.replications",
                         static_cast<double>(pool_.replications));
        health_.bumpWall("sweep.wall_s", pool_.wallSeconds);
        health_.bumpWall("sweep.busy_s", pool_.busySeconds());
        health_.setWall("sweep.utilization", pool_.utilization());
    }

    ObsFlags flags_;
    trace::MetricsSeries metrics_;
    trace::Tracer trace_;
    trace::HealthReport health_;
    sweep::PoolStats pool_; ///< merged over every sweepFold
    std::uint32_t lanes_ = 0;
    trace::FlushGuard::Registration traceFlush_;
    trace::FlushGuard::Registration healthFlush_;
};

} // namespace blitz::bench

#endif // BLITZ_BENCH_OBS_HPP
