#include "tracer.hpp"

#include <cstdio>
#include <ostream>

namespace blitz::trace {

namespace {

/**
 * Ticks to Chrome's microsecond timebase. Rendered with four decimals:
 * one tick is 1.25 ns = 0.00125 µs, so four decimals round-trip any
 * tick-aligned timestamp below ~2^53 exactly enough for viewers while
 * keeping files compact.
 */
void
printTs(std::ostream &os, sim::Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.4f", sim::ticksToUs(t));
    os << buf;
}

void
printEscaped(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << *s;
    }
    os << '"';
}

} // namespace

void
Tracer::push(Event e, std::initializer_list<TraceArg> args)
{
    // Sole writer entry point — complete/instant/counter all funnel
    // here, so this lock is the tracer's entire thread-safety story.
    std::lock_guard<std::mutex> lock(pushMu_);
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    e.args.assign(args.begin(), args.end());
    events_.push_back(std::move(e));
}

void
Tracer::complete(const char *cat, const char *name, std::uint32_t tid,
                 sim::Tick start, sim::Tick end,
                 std::initializer_list<TraceArg> args)
{
    Event e{};
    e.ph = 'X';
    e.cat = cat;
    e.name = name;
    e.tid = tid;
    e.ts = start;
    e.dur = end >= start ? end - start : 0;
    push(std::move(e), args);
}

void
Tracer::instant(const char *cat, const char *name, std::uint32_t tid,
                sim::Tick at, std::initializer_list<TraceArg> args)
{
    Event e{};
    e.ph = 'i';
    e.cat = cat;
    e.name = name;
    e.tid = tid;
    e.ts = at;
    push(std::move(e), args);
}

void
Tracer::counter(const char *cat, const char *name, std::uint32_t tid,
                sim::Tick at, double value)
{
    Event e{};
    e.ph = 'C';
    e.cat = cat;
    e.name = name;
    e.tid = tid;
    e.ts = at;
    e.value = value;
    push(std::move(e), {});
}

void
Tracer::absorb(const Tracer &other, std::uint32_t pid)
{
    for (const Event &e : other.events_) {
        if (events_.size() >= maxEvents_) {
            ++dropped_;
            continue;
        }
        Event copy = e;
        copy.pid = pid;
        events_.push_back(std::move(copy));
    }
    dropped_ += other.dropped_;
}

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        if (i)
            os << ',';
        os << "{\"ph\":\"" << e.ph << "\",\"cat\":";
        printEscaped(os, e.cat);
        os << ",\"name\":";
        printEscaped(os, e.name);
        os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":";
        printTs(os, e.ts);
        if (e.ph == 'X') {
            os << ",\"dur\":";
            printTs(os, e.dur);
        }
        if (e.ph == 'i')
            os << ",\"s\":\"t\"";
        if (e.ph == 'C') {
            os << ",\"args\":{\"value\":";
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.6g", e.value);
            os << buf << '}';
        } else if (!e.args.empty()) {
            os << ",\"args\":{";
            for (std::size_t a = 0; a < e.args.size(); ++a) {
                if (a)
                    os << ',';
                printEscaped(os, e.args[a].key);
                os << ':';
                if (e.args[a].str)
                    printEscaped(os, e.args[a].str);
                else
                    os << e.args[a].num;
            }
            os << '}';
        }
        os << '}';
    }
    os << "]}";
}

} // namespace blitz::trace
