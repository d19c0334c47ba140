/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span brackets one call from the benchmark into a layer of the
 * simulator: its name, start, end, its own id and the id of the span
 * that caused it. Spans stay in memory while the run is timed and are
 * written once, at exit, as a Chrome trace (chrome://tracing or
 * ui.perfetto.dev). There are no spans inside the simulator; every
 * span is opened by the benchmark around a call it makes.
 */

#ifndef BENCH_SPANS_HPP
#define BENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";
    std::uint32_t id = 0;     ///< 1-based position in the log
    std::uint32_t parent = 0; ///< 0 = a root span
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t arg = -1; ///< op index for "op" spans

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
};

class SpanLog
{
  public:
    SpanLog() { spans_.reserve(1 << 16); }

    /** While disabled, open() records nothing and returns id 0. */
    void setEnabled(bool on) { enabled_ = on; }

    std::uint32_t
    open(const char *name, std::uint32_t parent, std::int64_t arg)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.name = name;
        s.id = static_cast<std::uint32_t>(spans_.size() + 1);
        s.parent = parent;
        s.arg = arg;
        s.startNs = nowNs();
        spans_.push_back(s);
        return s.id;
    }

    void
    close(std::uint32_t id)
    {
        if (id != 0)
            spans_[id - 1].endNs = nowNs();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Forget every span from position @p size on. */
    void truncate(std::size_t size) { spans_.resize(size); }

    /**
     * Write every span as a Chrome-trace complete event ("ph":"X") on
     * one thread lane, timestamps in microseconds from the first span;
     * args carry the span's id, its parent's id and, for ops, the op
     * index. Returns false when the file cannot be written.
     */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%u,\"parent\":%u",
                         i ? "," : "", s.name,
                         static_cast<double>(s.startNs - t0) * 1e-3,
                         static_cast<double>(s.endNs - s.startNs) * 1e-3,
                         s.id, s.parent);
            if (s.arg >= 0)
                std::fprintf(f, ",\"op\":%lld", static_cast<long long>(s.arg));
            std::fprintf(f, "}}");
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    bool enabled_ = false;
};

/** A span open for the lifetime of the object; children open from it. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, std::uint32_t parent = 0,
          std::int64_t arg = -1)
        : log_(log), id_(log.open(name, parent, arg))
    {}

    ~Scope() { log_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Scope child(const char *name) { return Scope(log_, name, id_); }

    std::uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint32_t id_;
};

} // namespace bench

#endif // BENCH_SPANS_HPP
