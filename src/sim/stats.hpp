/**
 * @file
 * Streaming statistics used throughout the benches and tests.
 *
 * Summary accumulates count/mean/variance/min/max with Welford's online
 * algorithm; Histogram bins samples for the residual-error distributions
 * of Fig. 7; Percentiles keeps raw samples when exact quantiles are
 * needed (the convergence-time spreads of Fig. 4).
 */

#ifndef BLITZ_SIM_STATS_HPP
#define BLITZ_SIM_STATS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "logging.hpp"

namespace blitz::sim {

/** Online count / mean / variance / extrema accumulator. */
class Summary
{
  public:
    /** Fold one sample into the summary. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 with fewer than two samples). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Merge another summary into this one (parallel Welford). */
    void merge(const Summary &other);

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width-bin histogram over [lo, hi) with overflow bins. */
class Histogram
{
  public:
    /**
     * @param lo lower edge of the first bin.
     * @param hi upper edge of the last bin.
     * @param bins number of equal-width bins. @pre bins > 0, hi > lo.
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Insert a sample (out-of-range samples go to under/overflow). */
    void add(double x);

    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    double binLow(std::size_t i) const;
    double binHigh(std::size_t i) const { return binLow(i + 1); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }

    /** Render as "low-high: count" lines, for the bench reports. */
    std::string format(std::size_t barWidth = 40) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/** Exact-quantile accumulator; retains all samples. */
class Percentiles
{
  public:
    /**
     * Pre-size the sample buffer. Sweeps know their replication count
     * up front; reserving avoids regrowth in the fold loop.
     */
    void reserve(std::size_t n) { samples_.reserve(n); }

    void
    add(double x)
    {
        sorted_ = sorted_ && (samples_.empty() || samples_.back() <= x);
        samples_.push_back(x);
        sum_ += x;
    }

    std::size_t count() const { return samples_.size(); }

    /**
     * Quantile by linear interpolation between closest ranks.
     * @param q in [0, 1]. @pre at least one sample.
     */
    double quantile(double q);

    double median() { return quantile(0.5); }
    double p95() { return quantile(0.95); }
    double p99() { return quantile(0.99); }
    double minimum() { return quantile(0.0); }
    double maximum() { return quantile(1.0); }
    double mean() const;

    /**
     * Merge another accumulator's samples into this one (parallel
     * sweep fold). Appends in the other's insertion order; when both
     * sides are already sorted (e.g. partitions that were queried for
     * quantiles before merging) the result is combined with a single
     * inplace_merge pass instead of being re-sorted from scratch.
     * The running sum merges per partition, so folding replication
     * accumulators in index order yields the same mean at any thread
     * count.
     */
    void merge(const Percentiles &other);

  private:
    void ensureSorted();

    std::vector<double> samples_;
    double sum_ = 0.0;
    bool sorted_ = true;
};

} // namespace blitz::sim

#endif // BLITZ_SIM_STATS_HPP
