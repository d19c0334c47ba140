#include "stats.hpp"

#include <cmath>
#include <sstream>

namespace blitz::sim {

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

void
Summary::merge(const Summary &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    BLITZ_ASSERT(bins > 0, "histogram needs at least one bin");
    BLITZ_ASSERT(hi > lo, "histogram range is empty");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
    } else if (x >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((x - lo_) / width_);
        // Guard against floating-point edge rounding at hi_.
        idx = std::min(idx, counts_.size() - 1);
        ++counts_[idx];
    }
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

std::string
Histogram::format(std::size_t barWidth) const
{
    std::uint64_t peak = 1;
    for (auto c : counts_)
        peak = std::max(peak, c);

    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        auto bar = static_cast<std::size_t>(
            static_cast<double>(counts_[i]) /
            static_cast<double>(peak) * static_cast<double>(barWidth));
        os << "[" << binLow(i) << ", " << binHigh(i) << "): "
           << counts_[i] << "  " << std::string(bar, '#') << '\n';
    }
    if (underflow_)
        os << "underflow: " << underflow_ << '\n';
    if (overflow_)
        os << "overflow: " << overflow_ << '\n';
    return os.str();
}

void
Percentiles::merge(const Percentiles &other)
{
    if (other.samples_.empty())
        return;
    const std::size_t mid = samples_.size();
    const bool bothSorted = sorted_ && other.sorted_;
    // Grow geometrically across a whole fold of merges: vector's own
    // insert only guarantees amortized growth per call, and a sweep
    // that folds R same-sized replications would otherwise reallocate
    // (and copy the accumulated prefix) on nearly every merge once the
    // accumulator dwarfs each increment. Mega-mesh sweeps fold millions
    // of samples, so doubling here matters.
    const std::size_t need = mid + other.samples_.size();
    if (samples_.capacity() < need)
        samples_.reserve(std::max(samples_.capacity() * 2, need));
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    if (bothSorted) {
        // Two sorted partitions combine in one linear pass; skip even
        // that when the concatenation is already globally ordered.
        if (mid > 0 && samples_[mid] < samples_[mid - 1])
            std::inplace_merge(samples_.begin(),
                               samples_.begin() +
                                   static_cast<std::ptrdiff_t>(mid),
                               samples_.end());
    } else {
        sorted_ = false;
    }
}

void
Percentiles::ensureSorted()
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Percentiles::quantile(double q)
{
    BLITZ_ASSERT(!samples_.empty(), "quantile of empty sample set");
    BLITZ_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    ensureSorted();
    if (samples_.size() == 1)
        return samples_.front();
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= samples_.size())
        return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double
Percentiles::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

} // namespace blitz::sim
