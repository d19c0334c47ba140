/**
 * @file
 * Deterministic parallel experiment runner.
 *
 * Every figure in the reproduction is a Monte-Carlo sweep: the same
 * scenario re-run over many (seed, config) replications whose results
 * are folded into sim::Stats accumulators. The replications are
 * embarrassingly parallel, but naive parallelization breaks the
 * repo's determinism contract (a seed fully determines a run). This
 * harness restores it with two rules:
 *
 *  1. **Stream derivation.** Replication i of a sweep rooted at seed
 *     R draws from its own RNG stream seeded with
 *     `streamSeed(R, i) = splitmix64(R + (i+1) * 0x9e3779b97f4a7c15)`.
 *     The stream depends only on (R, i) — never on which thread runs
 *     the replication or in what order.
 *
 *  2. **Ordered fold.** runSweep() returns per-replication results in
 *     index order; callers fold them serially, so floating-point
 *     accumulation order is fixed.
 *
 * Together these make the aggregate statistics of a sweep bit-identical
 * for any thread count, including 1 (the serial reference).
 *
 * Thread count: explicit via SweepOptions::threads, else the
 * BLITZ_SWEEP_THREADS environment variable, else the hardware
 * concurrency.
 */

#ifndef BLITZ_SWEEP_SWEEP_HPP
#define BLITZ_SWEEP_SWEEP_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/logging.hpp"
#include "thread_pool.hpp"

namespace blitz::sweep {

/** splitmix64 finalizer — the same mix Rng uses for seed expansion. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Seed of replication @p index in a sweep rooted at @p rootSeed.
 *
 * This is the determinism anchor: the per-replication stream is a pure
 * function of (rootSeed, index), so scheduling cannot perturb results.
 */
constexpr std::uint64_t
streamSeed(std::uint64_t rootSeed, std::uint64_t index)
{
    return splitmix64(rootSeed + (index + 1) * 0x9e3779b97f4a7c15ull);
}

/**
 * Worker count used when SweepOptions::threads is 0: the
 * BLITZ_SWEEP_THREADS environment variable if set and valid (see
 * sim::envCount), else
 * std::thread::hardware_concurrency(), else 1.
 */
std::size_t defaultThreads();

/**
 * Wall-clock utilization of one sweep's worker pool, filled by
 * runSweep() when SweepOptions::stats points here. Strictly an
 * introspection output: nothing in the sweep's results depends on it,
 * so the determinism contract is untouched (the HealthReport files it
 * under the nondeterministic wall-clock section).
 */
struct PoolStats
{
    std::size_t threads = 0;       ///< workers the sweep actually used
    std::uint64_t replications = 0;
    double wallSeconds = 0.0;      ///< dispatch-to-drain span
    std::vector<double> workerBusySeconds; ///< per worker, fn() time

    double
    busySeconds() const
    {
        double s = 0.0;
        for (double b : workerBusySeconds)
            s += b;
        return s;
    }

    /** busy / (threads * wall); 1.0 = perfectly packed pool. */
    double
    utilization() const
    {
        const double denom =
            static_cast<double>(threads) * wallSeconds;
        return denom > 0.0 ? busySeconds() / denom : 0.0;
    }

    /** Fold another sweep's stats in (bench runs many scenarios). */
    void
    merge(const PoolStats &o)
    {
        threads = std::max(threads, o.threads);
        replications += o.replications;
        wallSeconds += o.wallSeconds;
        if (workerBusySeconds.size() < o.workerBusySeconds.size())
            workerBusySeconds.resize(o.workerBusySeconds.size(), 0.0);
        for (std::size_t i = 0; i < o.workerBusySeconds.size(); ++i)
            workerBusySeconds[i] += o.workerBusySeconds[i];
    }
};

/** Sweep execution knobs. */
struct SweepOptions
{
    /** Worker threads; 0 = defaultThreads(). */
    std::size_t threads = 0;
    /** When set, runSweep() fills pool utilization here (overwrites). */
    PoolStats *stats = nullptr;
};

/**
 * Run @p replications of @p fn across a fixed-size thread pool.
 *
 * @param fn invoked as fn(index, streamSeed(rootSeed, index)) for each
 *        index in [0, replications); must not share mutable state
 *        between invocations.
 * @return the results in index order — identical for any thread
 *         count. The first exception thrown by any replication is
 *         rethrown after the pool drains.
 */
template <typename Fn>
auto
runSweep(std::size_t replications, std::uint64_t rootSeed, Fn &&fn,
         const SweepOptions &opts = {})
    -> std::vector<
        std::invoke_result_t<Fn &, std::size_t, std::uint64_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t, std::uint64_t>;
    static_assert(!std::is_void_v<R>,
                  "sweep replications must return a value");

    std::vector<std::optional<R>> slots(replications);
    if (replications > 0) {
        std::size_t threads = opts.threads ? opts.threads
                                           : defaultThreads();
        threads = std::min(threads, replications);

        PoolStats *stats = opts.stats;
        if (stats) {
            stats->threads = threads;
            stats->replications = replications;
            stats->wallSeconds = 0.0;
            stats->workerBusySeconds.assign(threads, 0.0);
        }

        using Clock = std::chrono::steady_clock;
        std::atomic<std::size_t> next{0};
        std::mutex errMu;
        std::exception_ptr firstError;
        // Worker w only ever touches workerBusySeconds[w], so the
        // busy accounting needs no lock; the timing never influences
        // which replication runs where (the work-stealing counter
        // does), let alone any result.
        auto drain = [&](std::size_t worker) {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= replications)
                    return;
                // Each replication starts from a clean per-thread
                // arena; trials that opt in (e.g. ChaosConfig::arena)
                // reuse the previous trial's chunks instead of
                // re-touching the allocator.
                sim::threadArena().reset();
                const Clock::time_point t0 =
                    stats ? Clock::now() : Clock::time_point{};
                try {
                    slots[i].emplace(fn(i, streamSeed(rootSeed, i)));
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errMu);
                    if (!firstError)
                        firstError = std::current_exception();
                }
                if (stats)
                    stats->workerBusySeconds[worker] +=
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count();
            }
        };

        const Clock::time_point sweepStart =
            stats ? Clock::now() : Clock::time_point{};
        if (threads == 1) {
            // Serial reference path: same work, same order, no pool.
            drain(0);
        } else {
            ThreadPool pool(threads);
            for (std::size_t t = 0; t < threads; ++t)
                pool.submit([&drain, t] { drain(t); });
            pool.wait();
        }
        if (stats)
            stats->wallSeconds =
                std::chrono::duration<double>(Clock::now() - sweepStart)
                    .count();
        if (firstError)
            std::rethrow_exception(firstError);
    }

    std::vector<R> out;
    out.reserve(replications);
    for (auto &slot : slots) {
        BLITZ_ASSERT(slot.has_value(), "sweep replication missing");
        out.push_back(std::move(*slot));
    }
    return out;
}

/**
 * Convenience fold: run the sweep and merge results in index order.
 * @param merge invoked as merge(acc, result, index), serially, for
 *        index 0, 1, ... — the fixed order that keeps floating-point
 *        accumulation deterministic.
 */
template <typename Acc, typename Fn, typename Merge>
Acc
runSweepFold(std::size_t replications, std::uint64_t rootSeed, Fn &&fn,
             Merge &&merge, Acc acc = {}, const SweepOptions &opts = {})
{
    auto results =
        runSweep(replications, rootSeed, std::forward<Fn>(fn), opts);
    for (std::size_t i = 0; i < results.size(); ++i)
        merge(acc, results[i], i);
    return acc;
}

/**
 * Lane-merge fold for accumulators with an
 * `absorb(const R &, std::uint32_t lane)` member (trace::Tracer,
 * record::FlightRecorder): run the sweep and absorb each replication's
 * result in index order, stamping the replication index as the lane.
 * The merged stream is bit-identical for any thread count.
 */
template <typename Acc, typename Fn>
Acc
runSweepAbsorb(std::size_t replications, std::uint64_t rootSeed,
               Fn &&fn, const SweepOptions &opts = {})
{
    auto results =
        runSweep(replications, rootSeed, std::forward<Fn>(fn), opts);
    Acc acc{};
    for (std::size_t i = 0; i < results.size(); ++i)
        acc.absorb(results[i], static_cast<std::uint32_t>(i));
    return acc;
}

} // namespace blitz::sweep

#endif // BLITZ_SWEEP_SWEEP_HPP
