/**
 * @file
 * Crash-safe flush of observability output.
 *
 * A chaos crash-window run that dies mid-flight (assertion, sanitizer
 * abort, SIGSEGV in a harness bug) normally loses its whole trace and
 * metrics series, because both are buffered in memory and written at
 * the end. The FlushGuard keeps a process-wide list of flush actions
 * and runs them once on abnormal termination — fatal signals after
 * installSignalHandlers(), or an explicit flushAll() — so partial
 * observability output survives as *valid* JSON/CSV (the writers
 * always emit complete documents of whatever was captured so far).
 *
 * Flush actions run from a signal handler, which is best-effort by
 * nature (buffered I/O is not async-signal-safe); the guard trades
 * strict signal hygiene for the diagnostic value of a flushed
 * timeline, the same call the sanitizer runtimes make. A reentrancy
 * latch makes a crash *inside* a flush terminate instead of looping.
 *
 * Registrations are RAII: the returned handle deregisters on
 * destruction, so a guard scoped to a trial cannot dangle into the
 * next one.
 */

#ifndef BLITZ_TRACE_FLUSH_GUARD_HPP
#define BLITZ_TRACE_FLUSH_GUARD_HPP

#include <cstdint>
#include <functional>
#include <string>

namespace blitz::trace {

class HealthReport;
class Tracer;

class FlushGuard
{
  public:
    using Flush = std::function<void()>;

    /** Deregisters its flush action on destruction (RAII). */
    class Registration
    {
      public:
        Registration() = default;
        ~Registration() { release(); }
        Registration(Registration &&o) noexcept;
        Registration &operator=(Registration &&o) noexcept;
        Registration(const Registration &) = delete;
        Registration &operator=(const Registration &) = delete;

        /** Deregister now (the action will no longer run). */
        void release();

        explicit operator bool() const { return armed_; }

      private:
        friend class FlushGuard;
        explicit Registration(std::uint64_t id)
            : id_(id), armed_(true)
        {
        }

        std::uint64_t id_ = 0;
        bool armed_ = false;
    };

    /**
     * Register an arbitrary flush action (tracer, recorder, ...).
     * flushAll() runs actions under the registry lock, so an action
     * must not add or release registrations itself.
     */
    [[nodiscard]] static Registration add(Flush fn);

    /** Guard @p t: on flush, write its JSON document to @p path. */
    [[nodiscard]] static Registration guardTracer(const Tracer &t,
                                                  std::string path);

    /** Guard @p report: on flush, write its JSON document to @p path. */
    [[nodiscard]] static Registration
    guardHealth(const HealthReport &report, std::string path);

    /**
     * Run every registered action once, in registration order. Safe
     * to call multiple times (each call re-runs the current set);
     * reentrant calls — a flush action crashing — are ignored. The
     * guard itself allocates nothing here (the actions may).
     */
    static void flushAll() noexcept;

    /**
     * Install handlers for the fatal signals (SIGABRT, SIGSEGV,
     * SIGBUS, SIGFPE, SIGILL, SIGTERM, SIGINT) that flushAll() and
     * then re-raise with the default disposition, preserving the
     * process's exit status. Idempotent.
     */
    static void installSignalHandlers();

    /** Completed flushAll() passes (for tests). */
    static std::uint64_t flushCount();
};

} // namespace blitz::trace

#endif // BLITZ_TRACE_FLUSH_GUARD_HPP
