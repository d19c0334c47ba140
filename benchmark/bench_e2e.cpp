/**
 * @file
 * bench_e2e: runs one workload of the end-to-end paper-scenario benchmark.
 *
 *   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace=PATH]
 *   bench_e2e --quick [--workload NAME]
 *   bench_e2e --list
 *
 * One process runs one workload (see workloads.hpp): set-up, 3 untimed
 * warm-up ops, then timed ops until at least kMinOps ops and --seconds
 * seconds have passed, then more set-ups so their median is steady.
 * --seconds defaults to kRunSeconds, BENCHMARK.json's run_seconds, which
 * its command protocol passes as --seconds on every run. The
 * end-to-end metrics come from this untraced run. With --trace the ops
 * alternate between untraced and traced; the traced ones record spans,
 * written as a Chrome trace to PATH at exit, and the per-layer metrics
 * are printed instead. --quick runs every workload (or the named one)
 * for 3 ops with one set-up and no warm-up: a smoke test with no timing
 * claims.
 *
 * "host" numbers are wall time of the simulator; "model" numbers are
 * simulated time of the modelled SoC. Deterministic numbers (counts,
 * model time, model_digest) are computed over the first kMinOps timed
 * ops, so two runs with one seed print them identically. The last line
 * of stdout is one JSON object: correct, attempted, failed, metrics.
 * The exit code is 0 only when every check passed.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace bench;
using adapt::Count;

constexpr std::uint64_t kDefaultSeed = 2026;
constexpr double kRunSeconds = 8.0;
constexpr std::size_t kWarmupOps = 3;
constexpr std::size_t kMinOps = 100;
constexpr std::size_t kQuickOps = 3;
/**
 * Set-up runs at least kMinSetups times, and more — up to kMaxSetups —
 * while the repetitions so far took under kSetupBudgetS.
 */
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 0.25;
constexpr std::size_t kMaxSetups = 101;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = kRunSeconds;
    std::string tracePath;
    bool quick = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace=PATH]\n       bench_e2e --quick "
                 "[--workload NAME]\n       bench_e2e --list\nworkloads:",
                 why);
    for (const char *w : workloads())
        std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        }
        const auto need = [&]() -> std::string {
            if (eq != std::string::npos)
                return value;
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (arg == "--list") {
            for (const char *w : workloads())
                std::printf("%s\n", w);
            std::exit(0);
        } else if (arg == "--quick") {
            o.quick = true;
        } else if (arg == "--workload") {
            o.workload = need();
        } else if (arg == "--seed") {
            const std::string v = need();
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            const std::string v = need();
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds >= 0.0))
                usage("--seconds takes a non-negative number");
        } else if (arg == "--trace") {
            o.tracePath = need();
            if (o.tracePath.empty())
                usage("--trace takes an output path");
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload.empty() && !o.quick)
        usage("--workload is required");
    if (!o.workload.empty() &&
        std::none_of(workloads().begin(), workloads().end(),
                     [&](const char *w) { return o.workload == w; }))
        usage(("unknown workload " + o.workload).c_str());
    return o;
}

/** Nearest-rank percentile @p p (0..100] of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One timed op, as measured. */
struct Sample
{
    double hostMs = 0.0;
    bool traced = false;
    std::uint32_t spanId = 0;
    OpResult result;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

struct Outcome
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics; ///< end-to-end, or per-layer when traced
};

/**
 * Run set-up, replacing what an earlier set-up built, and append its wall
 * time and that of its "build" children to @p totalS and @p buildS,
 * seconds.
 */
void
timedSetup(Workload &w, SpanLog &log, std::vector<double> &totalS,
           std::vector<double> &buildS)
{
    // Set-up always records its spans: they are how "build" is timed.
    log.setEnabled(true);
    const std::size_t first = log.spans().size();
    const std::int64_t t0 = nowNs();
    {
        Scope span(log, "setup");
        w.setup(span);
    }
    totalS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    double build = 0.0;
    for (std::size_t i = first; i < log.spans().size(); ++i)
        if (std::strcmp(log.spans()[i].name, "build") == 0)
            build += log.spans()[i].ms() * 1e-3;
    buildS.push_back(build);
}

/** Run one op, turning a thrown error into a failed op. */
OpResult
runOp(Workload &w, SpanLog &log, std::uint64_t index, bool traced,
      std::uint32_t *spanId)
{
    log.setEnabled(traced);
    Scope span(log, "op", 0, static_cast<std::int64_t>(index));
    if (spanId)
        *spanId = span.id();
    OpResult r;
    try {
        r = w.op(index, span);
    } catch (const std::exception &e) {
        r.fail(e.what());
    }
    return r;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
cpusAllowed()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    return static_cast<std::size_t>(CPU_COUNT(&set));
}

/** Sum of the per-op span time under @p name, over traced samples, ms. */
double
childMs(const SpanLog &log, const std::vector<Sample> &samples,
        const char *name)
{
    std::vector<char> tracedOp(log.spans().size() + 1, 0);
    for (const Sample &s : samples)
        if (s.traced && s.spanId)
            tracedOp[s.spanId] = 1;
    double ms = 0.0;
    for (const Span &sp : log.spans())
        if (tracedOp[sp.parent] && std::strcmp(sp.name, name) == 0)
            ms += sp.ms();
    return ms;
}

/** Mean duration of every span called @p name, ms (0 when none). */
double
meanSpanMs(const SpanLog &log, const char *name)
{
    double ms = 0.0;
    std::size_t n = 0;
    for (const Span &sp : log.spans())
        if (std::strcmp(sp.name, name) == 0) {
            ms += sp.ms();
            ++n;
        }
    return n ? ms / static_cast<double>(n) : 0.0;
}

std::vector<Metric>
perLayerMetrics(const SpanLog &log, const std::vector<Sample> &window,
                const std::vector<Sample> &timed,
                const std::vector<double> &setupBuildS)
{
    // Counts come from the deterministic window, timings from the traced
    // ops; a layer the workload does not exercise reads 0, because its
    // counts are 0 and its spans absent.
    adapt::Counters w;
    double advancedUs = 0.0;
    double responseUs = 0.0;
    std::uint64_t responses = 0;
    for (const Sample &s : window) {
        w += s.result.counters;
        advancedUs += s.result.advancedUs;
        responseUs += s.result.responseUsSum;
        responses += s.result.responses;
    }
    adapt::Counters t;
    std::size_t tracedOps = 0;
    std::vector<double> tracedMs, untracedMs;
    for (const Sample &s : timed) {
        (s.traced ? tracedMs : untracedMs).push_back(s.hostMs);
        if (s.traced) {
            t += s.result.counters;
            ++tracedOps;
        }
    }
    const auto ops = static_cast<double>(window.size());
    const auto per = [&](Count c) { return ratio(double(w[c]), ops); };
    const auto of = [&](Count a, Count b) {
        return ratio(double(w[a]), double(w[b]));
    };
    const double runNs = childMs(log, timed, "run") * 1e6;
    const auto nsPer = [&](Count c) { return ratio(runNs, double(t[c])); };
    // Every workload opens "build" and "run" spans; only SoC runs report
    // PM responses, so those two spans count as the soc layer only there.
    const auto msPerSocOp = [&](const char *name) {
        return responses ? ratio(childMs(log, timed, name), double(tracedOps))
                         : 0.0;
    };

    return {
        {"sim.events_per_op", "count", per(Count::Events)},
        {"sim.ns_per_event", "ns/event", nsPer(Count::Events)},
        {"sim.events_per_sim_us", "count/us",
         ratio(double(w[Count::Events]), advancedUs)},
        {"sim.queue_depth_hwm", "count", double(w.queueDepthHwm)},
        {"noc.packets_per_op", "count", per(Count::PacketsSent)},
        {"noc.drop_frac", "ratio",
         of(Count::PacketsDropped, Count::PacketsSent)},
        {"noc.ns_per_packet", "ns/packet", nsPer(Count::PacketsSent)},
        {"coin.exchanges_per_op", "count", per(Count::MeshExchanges)},
        {"coin.packets_per_op", "count", per(Count::MeshPackets)},
        {"coin.ns_per_exchange", "ns/exchange", nsPer(Count::MeshExchanges)},
        {"blitzcoin.exchanges_per_op", "count",
         per(Count::ExchangesInitiated)},
        {"blitzcoin.move_frac", "ratio",
         of(Count::ExchangesMoved, Count::ExchangesInitiated)},
        {"blitzcoin.timeout_frac", "ratio",
         of(Count::ExchangesTimedOut, Count::ExchangesInitiated)},
        {"blitzcoin.recovered_per_op", "count", per(Count::UpdatesRecovered)},
        {"blitzcoin.abandoned_per_op", "count",
         per(Count::ExchangesAbandoned)},
        {"blitzcoin.audit_minted_per_op", "count", per(Count::AuditMinted)},
        {"blitzcoin.quarantines_per_op", "count", per(Count::Quarantines)},
        {"blitzcoin.settle_ms", "ms/settle", meanSpanMs(log, "settle")},
        {"soc.build_ms", "ms/op", msPerSocOp("build")},
        {"soc.run_ms", "ms/op", msPerSocOp("run")},
        {"soc.response_us_mean", "us", ratio(responseUs, double(responses))},
        {"power.physics_steps_per_op", "count", per(Count::PhysicsSteps)},
        {"power.throttle_engages_per_op", "count",
         per(Count::ThrottleEngages)},
        {"power.throttle_residency_frac", "ratio",
         of(Count::ThrottleResidency, Count::TileSteps)},
        {"record.appended_per_op", "count", per(Count::Recorded)},
        {"trace.observe_ms", "ms/op",
         ratio(childMs(log, timed, "observe"), double(tracedOps))},
        {"setup.build_s", "s", median(setupBuildS)},
        {"bench.trace_overhead_frac", "ratio",
         ratio(percentile(tracedMs, 50), percentile(untracedMs, 50)) - 1.0},
    };
}

Outcome
runWorkload(const std::string &name, const Options &opt)
{
    std::unique_ptr<Workload> w = makeWorkload(name, opt.seed);
    if (!w)
        usage(("unknown workload " + name).c_str());
    const bool traced = !opt.tracePath.empty();
    SpanLog log;
    Outcome out;

    // The set-up the ops use. More repetitions, for a steady median, run
    // after the ops (below).
    std::vector<double> setupS;
    std::vector<double> setupBuildS;
    timedSetup(*w, log, setupS, setupBuildS);

    std::string firstFailure;
    const auto account = [&](const OpResult &r) {
        ++out.attempted;
        if (!r.ok) {
            ++out.failed;
            if (firstFailure.empty())
                firstFailure = r.failure;
        }
    };
    std::uint64_t index = 0;
    const std::size_t warmups = opt.quick ? 0 : kWarmupOps;
    for (; index < warmups; ++index)
        account(runOp(*w, log, index, false, nullptr));

    const std::size_t minOps = opt.quick ? kQuickOps : kMinOps;
    std::vector<Sample> timed;
    double windowRssMb = 0.0;
    const std::int64_t start = nowNs();
    while (timed.size() < minOps ||
           (!opt.quick &&
            static_cast<double>(nowNs() - start) * 1e-9 < opt.seconds)) {
        Sample s;
        s.traced = traced && timed.size() % 2 == 1;
        const std::int64_t t0 = nowNs();
        s.result = runOp(*w, log, index++, s.traced, &s.spanId);
        s.hostMs = static_cast<double>(nowNs() - t0) * 1e-6;
        account(s.result);
        timed.push_back(std::move(s));
        // Memory is read at the end of the fixed window, so ops that only
        // fill the remaining --seconds cannot move it.
        if (timed.size() == minOps)
            windowRssMb = peakRssMb();
    }

    log.setEnabled(traced);
    std::string finishFailure;
    {
        Scope span(log, "finish");
        finishFailure = w->finish(span);
    }
    out.correct = out.failed == 0 && finishFailure.empty();

    // The set-up repetitions run once peak memory has been read: rebuilding
    // an instance in a heap that already held one can take more memory
    // than the first build did (diffusion_100x100: 609 MB, against 426 MB).
    if (!opt.quick) {
        SpanLog repeatLog;
        double spentS = setupS.front();
        while (setupS.size() < kMinSetups ||
               (spentS < kSetupBudgetS && setupS.size() < kMaxSetups)) {
            repeatLog.truncate(0);
            timedSetup(*w, repeatLog, setupS, setupBuildS);
            spentS += setupS.back();
        }
    }

    const std::vector<Sample> window(timed.begin(), timed.begin() + minOps);
    std::vector<double> untracedMs;
    double untracedS = 0.0;
    double untracedModelUs = 0.0;
    for (const Sample &s : timed)
        if (!s.traced) {
            untracedMs.push_back(s.hostMs);
            untracedS += s.hostMs * 1e-3;
            untracedModelUs += s.result.advancedUs;
        }
    double modelUs = 0.0;
    Fnv digest;
    for (const Sample &s : window) {
        modelUs += s.result.modelUs;
        digest.add(s.result.digest.h);
    }

    const double setupMedianS = median(setupS);
    const double failFrac =
        ratio(double(out.failed), double(out.attempted));
    std::printf("workload %s  seed %llu  setups %zu  ops %zu warm-up + %zu "
                "timed (%zu traced)\n",
                name.c_str(), static_cast<unsigned long long>(opt.seed),
                setupS.size(), warmups, timed.size(),
                traced ? timed.size() / 2 : 0);
    std::printf("  build %s, %s; nproc %u; cpus allowed %zu (%s)\n",
                BENCH_BUILD_TYPE, BENCH_COMPILER,
                std::thread::hardware_concurrency(), cpusAllowed(),
                cpusAllowed() == 1 ? "pinned" : "not pinned");
    std::printf("  %-16s %.6f  ratio (%zu failed of %zu attempted)\n",
                "op_fail_frac", failFrac, out.failed, out.attempted);
    std::printf("  %-16s %016llx  (first %zu timed ops)\n", "model_digest",
                static_cast<unsigned long long>(digest.h), window.size());
    if (!firstFailure.empty())
        std::printf("  first op failure: %s\n", firstFailure.c_str());
    if (!finishFailure.empty())
        std::printf("  end-of-run check failed: %s\n", finishFailure.c_str());

    if (traced) {
        out.metrics = perLayerMetrics(log, window, timed, setupBuildS);
        if (!log.writeChromeTrace(opt.tracePath)) {
            std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                         opt.tracePath.c_str());
            out.correct = false;
        } else {
            std::printf("  trace: %zu spans -> %s\n", log.spans().size(),
                        opt.tracePath.c_str());
        }
    } else {
        // op_ms_p90 is printed but not part of the result: on a shared
        // host its run-to-run spread exceeds any bound worth setting.
        std::printf("  %-30s %.9g ms (nearest rank of %zu; unbounded)\n",
                    "op_ms_p90", percentile(untracedMs, 90),
                    untracedMs.size());
        out.metrics = {
            {"op_ms_p50", "ms", percentile(untracedMs, 50)},
            {"sim_us_per_s", "us/s", ratio(untracedModelUs, untracedS)},
            {"setup_s", "s", setupMedianS},
            {"peak_rss_mb", "MB", windowRssMb},
            {"model_us_mean", "us", ratio(modelUs, double(window.size()))},
        };
    }
    for (const Metric &m : out.metrics)
        std::printf("  %-30s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    return out;
}

void
printResult(const Outcome &o)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                o.correct ? "true" : "false", o.attempted, o.failed);
    for (std::size_t i = 0; i < o.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", o.metrics[i].name.c_str(),
                    o.metrics[i].value, o.metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    try {
        if (opt.quick) {
            bool ok = true;
            for (const char *name : workloads()) {
                if (!opt.workload.empty() && opt.workload != name)
                    continue;
                const Outcome o = runWorkload(name, opt);
                ok = ok && o.correct;
                std::fflush(stdout);
            }
            std::printf("quick: %s\n", ok ? "all checks passed" : "FAILED");
            return ok ? 0 : 1;
        }
        const Outcome o = runWorkload(opt.workload, opt);
        printResult(o);
        return o.correct ? 0 : 1;
    } catch (const std::exception &e) {
        // Ops catch their own errors; this is set-up or end-of-run failing.
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
