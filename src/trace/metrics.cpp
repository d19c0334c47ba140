#include "metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "sim/logging.hpp"

namespace blitz::trace {

namespace {

/**
 * Shortest round-trip-exact rendering of a double. Metric values are
 * exact simulator state (counters widened to double, tick-derived
 * gauges), so %.17g would print noise digits; try increasing precision
 * until the text parses back bit-identically.
 */
void
printDouble(std::ostream &os, double v)
{
    char buf[40];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    os << buf;
}

} // namespace

void
Registry::sampled(std::string name, std::function<double()> fn)
{
    BLITZ_ASSERT(fn, "sampled metric '", name, "' needs a callback");
    BLITZ_ASSERT(series_.rows_.empty(),
                 "metric '", name,
                 "' registered after the first snapshot");
    for (const std::string &n : schema_)
        BLITZ_ASSERT(n != name, "duplicate metric '", name, "'");
    schema_.push_back(std::move(name));
    fns_.push_back(std::move(fn));
}

void
Registry::sample(sim::Tick tick)
{
    Snapshot row;
    row.tick = tick;
    row.values.reserve(fns_.size());
    for (const auto &fn : fns_)
        row.values.push_back(fn());
    if (series_.schema_.empty())
        series_.schema_ = schema_;
    series_.rows_.push_back(std::move(row));
    series_.cov_.push_back(1);
    if (onSample)
        onSample(series_.rows_.back());
}

MetricsSeries
Registry::takeSeries()
{
    if (series_.schema_.empty())
        series_.schema_ = schema_;
    MetricsSeries out = std::move(series_);
    series_ = MetricsSeries{};
    return out;
}

void
MetricsSeries::merge(const MetricsSeries &other)
{
    if (other.schema_.empty())
        return;
    if (schema_.empty()) {
        *this = other;
        return;
    }
    BLITZ_ASSERT(schema_.size() == other.schema_.size(),
                 "merging metric series with different schemas");
    for (std::size_t i = 0; i < schema_.size(); ++i) {
        BLITZ_ASSERT(schema_[i] == other.schema_[i],
                     "merging metric series with different schemas (",
                     schema_[i], " vs ", other.schema_[i], ")");
    }
    const std::size_t shared = std::min(rows_.size(),
                                        other.rows_.size());
    for (std::size_t r = 0; r < shared; ++r) {
        BLITZ_ASSERT(rows_[r].tick == other.rows_[r].tick,
                     "merging metric series with misaligned ticks");
        for (std::size_t c = 0; c < rows_[r].values.size(); ++c)
            rows_[r].values[c] += other.rows_[r].values[c];
        cov_[r] += other.cov_[r];
    }
    for (std::size_t r = shared; r < other.rows_.size(); ++r) {
        rows_.push_back(other.rows_[r]);
        cov_.push_back(other.cov_[r]);
    }
}

void
MetricsSeries::writeCsv(std::ostream &os) const
{
    os << "tick,cov";
    for (const std::string &name : schema_)
        os << ',' << name;
    os << '\n';
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << rows_[r].tick << ',' << cov_[r];
        for (double v : rows_[r].values) {
            os << ',';
            printDouble(os, v);
        }
        os << '\n';
    }
}

} // namespace blitz::trace
