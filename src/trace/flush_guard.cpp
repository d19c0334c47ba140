#include "flush_guard.hpp"

#include <atomic>
#include <csignal>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "health.hpp"
#include "tracer.hpp"

namespace blitz::trace {

namespace {

struct Entry
{
    std::uint64_t id;
    FlushGuard::Flush fn;
};

struct State
{
    std::mutex mu;
    std::vector<Entry> entries;
    std::uint64_t nextId = 1;
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<bool> flushing{false};
    bool installed = false;
};

/**
 * Leaked on purpose: flush actions may run during process teardown
 * (signal while statics destruct), so the registry must never be
 * destroyed before them.
 */
State &
state()
{
    static State *s = new State;
    return *s;
}

constexpr int fatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE,
                                SIGILL,  SIGTERM, SIGINT};

extern "C" void
onFatalSignal(int sig)
{
    FlushGuard::flushAll();
    // Restore the default disposition and re-raise so the process
    // still dies with the signal's exit status (and core, if any).
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

FlushGuard::Registration::Registration(Registration &&o) noexcept
    : id_(o.id_), armed_(o.armed_)
{
    o.armed_ = false;
}

FlushGuard::Registration &
FlushGuard::Registration::operator=(Registration &&o) noexcept
{
    if (this != &o) {
        release();
        id_ = o.id_;
        armed_ = o.armed_;
        o.armed_ = false;
    }
    return *this;
}

void
FlushGuard::Registration::release()
{
    if (!armed_)
        return;
    armed_ = false;
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.entries.begin(); it != s.entries.end(); ++it) {
        if (it->id == id_) {
            s.entries.erase(it);
            return;
        }
    }
}

FlushGuard::Registration
FlushGuard::add(Flush fn)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint64_t id = s.nextId++;
    s.entries.push_back({id, std::move(fn)});
    return Registration(id);
}

FlushGuard::Registration
FlushGuard::guardTracer(const Tracer &t, std::string path)
{
    return add([&t, path = std::move(path)] {
        std::ofstream os(path);
        if (os)
            t.writeJson(os);
    });
}

FlushGuard::Registration
FlushGuard::guardHealth(const HealthReport &report, std::string path)
{
    return add([&report, path = std::move(path)] {
        std::ofstream os(path);
        if (os)
            report.writeJson(os);
    });
}

void
FlushGuard::flushAll() noexcept
{
    State &s = state();
    // Reentrancy latch: a crash inside a flush action must terminate,
    // not recurse through the handler forever.
    bool expected = false;
    if (!s.flushing.compare_exchange_strong(expected, true))
        return;
    // Run the actions in place: a copy of the registry would allocate,
    // and a signal that lands inside malloc would deadlock on it before
    // any flush ran. Hold the lock if we can take it; from a signal
    // handler the interrupted thread may hold it — run from the live
    // vector then (best-effort by design).
    const bool locked = s.mu.try_lock();
    for (Entry &e : s.entries) {
        try {
            if (e.fn)
                e.fn();
        } catch (...) {
            // A failed flush must not mask the original crash.
        }
    }
    if (locked)
        s.mu.unlock();
    s.flushes.fetch_add(1, std::memory_order_relaxed);
    s.flushing.store(false);
}

void
FlushGuard::installSignalHandlers()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.installed)
        return;
    s.installed = true;
    for (int sig : fatalSignals)
        std::signal(sig, onFatalSignal);
}

std::uint64_t
FlushGuard::flushCount()
{
    return state().flushes.load(std::memory_order_relaxed);
}

} // namespace blitz::trace
