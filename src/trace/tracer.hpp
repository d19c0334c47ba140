/**
 * @file
 * Event tracer: the timeline half of the observability plane.
 *
 * Records complete spans ('X'), instants ('i'), and counter samples
 * ('C') in the Chrome trace-event JSON format, so a chaos run opens
 * directly in Perfetto / chrome://tracing. Timestamps convert simulated
 * ticks to microseconds at the SoC's 800 MHz NoC clock; the `pid` maps
 * to a sweep replication and the `tid` to a tile, so a merged sweep
 * trace shows one process lane per replication with per-tile threads.
 *
 * Cost model: hook sites hold a `Tracer *` that is null by default —
 * the disabled path is one branch, exactly the FaultHook::inert()
 * pattern. Event capacity is bounded; overflow drops new events and
 * counts them (droppedEvents()), never silently.
 *
 * Thread safety: the append path (push) takes a mutex, so hook sites
 * running in parallel shard phases (sim/shard.hpp) may share one
 * tracer without racing the event vector. Interleaving across shards
 * is arbitrary, so sharded golden digests must not pin event *order*
 * — only counts. Readers (eventCount, writeJson, absorb) are not
 * synchronized against concurrent appends; call them between runs.
 */

#ifndef BLITZ_TRACE_TRACER_HPP
#define BLITZ_TRACE_TRACER_HPP

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "sim/types.hpp"

namespace blitz::trace {

/**
 * One key/value argument of a trace event. Keys must be string
 * literals (hook sites only ever pass literals); values are either
 * integers or short labels.
 */
struct TraceArg
{
    TraceArg(const char *k, std::int64_t v) : key(k), num(v) {}
    TraceArg(const char *k, const char *v) : key(k), str(v) {}

    const char *key;
    const char *str = nullptr; ///< label value; null means numeric
    std::int64_t num = 0;
};

/** Chrome trace-event recorder. */
class Tracer
{
  public:
    /** @param maxEvents capacity before overflow counting starts. */
    explicit Tracer(std::size_t maxEvents = 1u << 20)
        : maxEvents_(maxEvents)
    {
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record a complete span [start, end] ('X'). */
    void complete(const char *cat, const char *name, std::uint32_t tid,
                  sim::Tick start, sim::Tick end,
                  std::initializer_list<TraceArg> args = {});

    /** Record a point event ('i', thread scope). */
    void instant(const char *cat, const char *name, std::uint32_t tid,
                 sim::Tick at, std::initializer_list<TraceArg> args = {});

    /** Record a counter sample ('C'). */
    void counter(const char *cat, const char *name, std::uint32_t tid,
                 sim::Tick at, double value);

    std::size_t eventCount() const { return events_.size(); }

    /** Events refused because the capacity was reached. */
    std::uint64_t droppedEvents() const { return dropped_; }

    /**
     * Append another tracer's events re-homed to process lane @p pid —
     * the sweep fold path. Deterministic: pure concatenation in call
     * order, no sorting.
     */
    void absorb(const Tracer &other, std::uint32_t pid);

    /** Write the {"traceEvents": [...]} document. */
    void writeJson(std::ostream &os) const;

  private:
    struct Event
    {
        char ph;
        const char *cat;
        const char *name;
        std::uint32_t pid;
        std::uint32_t tid;
        sim::Tick ts;
        sim::Tick dur;    ///< 'X' only
        double value;     ///< 'C' only
        std::vector<TraceArg> args;
    };

    void push(Event e, std::initializer_list<TraceArg> args);

    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::vector<Event> events_;
    /** Serializes push() across parallel shard phases. */
    std::mutex pushMu_;
};

} // namespace blitz::trace

#endif // BLITZ_TRACE_TRACER_HPP
