#include "health.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <ostream>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"

namespace blitz::trace {

namespace {

void
printEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

/**
 * Print a value so the deterministic section is byte-stable: counters
 * (the common case) as plain integers, everything else with enough
 * digits (%.17g) to round-trip the double exactly.
 */
void
printValue(std::ostream &os, double v)
{
    char buf[40];
    if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15)
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

void
printSection(std::ostream &os, const char *name,
             const std::vector<HealthReport::Entry> &entries)
{
    os << '"' << name << "\":{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i)
            os << ',';
        printEscaped(os, entries[i].first);
        os << ':';
        printValue(os, entries[i].second);
    }
    os << '}';
}

/** Minimal scanner over the writeJson() document shape. */
struct Scanner
{
    std::string text;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos < text.size() && text[pos] == c;
    }

    bool
    string(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return false;
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\') {
                if (pos >= text.size())
                    return false;
                c = text[pos++];
            }
            out += c;
        }
        if (pos >= text.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number(double &out)
    {
        skipWs();
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        out = std::strtod(start, &end);
        if (end == start)
            return false;
        pos += static_cast<std::size_t>(end - start);
        return true;
    }
};

bool
parseSection(Scanner &sc, std::vector<HealthReport::Entry> &out)
{
    if (!sc.expect('{'))
        return false;
    if (sc.peek('}'))
        return sc.expect('}');
    for (;;) {
        std::string key;
        double value = 0.0;
        if (!sc.string(key) || !sc.expect(':') || !sc.number(value))
            return false;
        out.emplace_back(std::move(key), value);
        if (sc.peek(',')) {
            sc.expect(',');
            continue;
        }
        return sc.expect('}');
    }
}

} // namespace

void
HealthReport::upsert(std::vector<Entry> &section,
                     std::vector<char> &modes, std::string_view key,
                     double value, int mode)
{
    for (std::size_t i = 0; i < section.size(); ++i) {
        if (section[i].first == key) {
            if (mode == 1)
                section[i].second += value;
            else if (mode == 2)
                section[i].second = section[i].second > value
                                        ? section[i].second
                                        : value;
            else
                section[i].second = value;
            modes[i] = static_cast<char>(mode);
            return;
        }
    }
    section.emplace_back(std::string(key), value);
    modes.push_back(static_cast<char>(mode));
}

void
HealthReport::setDet(std::string_view key, double value)
{
    upsert(det_, detMode_, key, value, 0);
}

void
HealthReport::bumpDet(std::string_view key, double value)
{
    upsert(det_, detMode_, key, value, 1);
}

void
HealthReport::maxDet(std::string_view key, double value)
{
    upsert(det_, detMode_, key, value, 2);
}

void
HealthReport::setWall(std::string_view key, double value)
{
    upsert(wall_, wallMode_, key, value, 0);
}

void
HealthReport::bumpWall(std::string_view key, double value)
{
    upsert(wall_, wallMode_, key, value, 1);
}

void
HealthReport::absorb(const HealthReport &other)
{
    if (run_.empty())
        run_ = other.run_;
    for (std::size_t i = 0; i < other.det_.size(); ++i)
        upsert(det_, detMode_, other.det_[i].first,
               other.det_[i].second, other.detMode_[i]);
    for (std::size_t i = 0; i < other.wall_.size(); ++i)
        upsert(wall_, wallMode_, other.wall_[i].first,
               other.wall_[i].second, other.wallMode_[i]);
}

const double *
HealthReport::findDet(std::string_view key) const
{
    for (const Entry &e : det_)
        if (e.first == key)
            return &e.second;
    return nullptr;
}

const double *
HealthReport::findWall(std::string_view key) const
{
    for (const Entry &e : wall_)
        if (e.first == key)
            return &e.second;
    return nullptr;
}

void
HealthReport::clear()
{
    run_.clear();
    det_.clear();
    wall_.clear();
    detMode_.clear();
    wallMode_.clear();
}

void
HealthReport::writeJson(std::ostream &os) const
{
    os << "{\"blitzHealth\":1,\"run\":";
    printEscaped(os, run_);
    os << ',';
    printSection(os, "deterministic", det_);
    os << ',';
    printSection(os, "wallclock", wall_);
    os << "}\n";
}

bool
HealthReport::parse(std::istream &is)
{
    clear();
    Scanner sc;
    sc.text.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());

    std::string key;
    bool ok = sc.expect('{') && sc.string(key) &&
              key == "blitzHealth" && sc.expect(':');
    double version = 0.0;
    ok = ok && sc.number(version) && version == 1.0;
    while (ok && sc.peek(',')) {
        sc.expect(',');
        if (!sc.string(key) || !sc.expect(':')) {
            ok = false;
            break;
        }
        if (key == "run")
            ok = sc.string(run_);
        else if (key == "deterministic")
            ok = parseSection(sc, det_);
        else if (key == "wallclock")
            ok = parseSection(sc, wall_);
        else
            ok = false;
    }
    if (!ok || !sc.expect('}')) {
        clear();
        return false;
    }
    // The document does not carry fold modes; parsed entries fold as
    // sums (the counter common case) if later absorbed.
    detMode_.assign(det_.size(), 1);
    wallMode_.assign(wall_.size(), 1);
    return true;
}

std::vector<HealthReport::DiffEntry>
HealthReport::diff(const HealthReport &a, const HealthReport &b)
{
    std::vector<DiffEntry> out;
    for (const Entry &ea : a.det_) {
        const double *vb = b.findDet(ea.first);
        if (vb && *vb == ea.second)
            continue;
        DiffEntry d;
        d.key = ea.first;
        d.inA = true;
        d.a = ea.second;
        if (vb) {
            d.inB = true;
            d.b = *vb;
        }
        out.push_back(std::move(d));
    }
    for (const Entry &eb : b.det_) {
        if (a.findDet(eb.first))
            continue;
        DiffEntry d;
        d.key = eb.first;
        d.inB = true;
        d.b = eb.second;
        out.push_back(std::move(d));
    }
    return out;
}

void
fillQueueHealth(HealthReport &report, const sim::EventQueue &eq,
                std::string_view prefix)
{
    const std::string p(prefix);
    report.bumpDet(p + ".scheduled",
                   static_cast<double>(eq.totalScheduled()));
    report.bumpDet(p + ".executed",
                   static_cast<double>(eq.totalExecuted()));
    report.maxDet(p + ".depth_hwm",
                  static_cast<double>(eq.depthHighWater()));
    report.maxDet(p + ".batch_hwm",
                  static_cast<double>(eq.batchHighWater()));
}

void
fillArenaHealth(HealthReport &report, const sim::Arena &arena,
                std::string_view prefix)
{
    const std::string p(prefix);
    report.maxDet(p + ".reserved_bytes",
                  static_cast<double>(arena.bytesReserved()));
    report.maxDet(p + ".used_hwm_bytes",
                  static_cast<double>(arena.bytesHighWater()));
}

} // namespace blitz::trace
