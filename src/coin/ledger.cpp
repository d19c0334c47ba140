#include "ledger.hpp"

#include <algorithm>
#include <cmath>

namespace blitz::coin {

Ledger::Ledger(std::size_t n)
    : has_(n, 0), max_(n, 0)
{
    BLITZ_ASSERT(n > 0, "ledger needs at least one tile");
}

void
Ledger::setMax(std::size_t i, Coins max)
{
    BLITZ_ASSERT(i < max_.size(), "tile index out of range");
    BLITZ_ASSERT(max >= 0, "max coins cannot be negative");
    totalMax_ += max - max_[i];
    max_[i] = max;
}

void
Ledger::setHas(std::size_t i, Coins has)
{
    BLITZ_ASSERT(i < has_.size(), "tile index out of range");
    totalHas_ += has - has_[i];
    has_[i] = has;
}

void
Ledger::transfer(std::size_t from, std::size_t to, Coins amount)
{
    BLITZ_ASSERT(from < has_.size() && to < has_.size(),
                 "tile index out of range");
    BLITZ_ASSERT(from != to, "transfer to self");
    has_[from] -= amount;
    has_[to] += amount;
    ++transfers_;
    coinsMoved_ += static_cast<std::uint64_t>(
        amount < 0 ? -amount : amount);
}

double
Ledger::alpha() const
{
    if (totalMax_ == 0)
        return 0.0;
    return static_cast<double>(totalHas_) /
           static_cast<double>(totalMax_);
}

double
Ledger::tileError(std::size_t i) const
{
    BLITZ_ASSERT(i < has_.size(), "tile index out of range");
    return std::abs(static_cast<double>(has_[i]) -
                    alpha() * static_cast<double>(max_[i]));
}

double
Ledger::globalError() const
{
    double sum = 0.0;
    const double a = alpha();
    const std::size_t n = has_.size();
    for (std::size_t i = 0; i < n; ++i) {
        sum += std::abs(static_cast<double>(has_[i]) -
                        a * static_cast<double>(max_[i]));
    }
    return sum / static_cast<double>(n);
}

double
Ledger::maxError() const
{
    double worst = 0.0;
    const double a = alpha();
    const std::size_t n = has_.size();
    for (std::size_t i = 0; i < n; ++i) {
        worst = std::max(worst,
                         std::abs(static_cast<double>(has_[i]) -
                                  a * static_cast<double>(max_[i])));
    }
    return worst;
}

} // namespace blitz::coin
