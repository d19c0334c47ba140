#include "power_trace.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "sim/logging.hpp"

namespace blitz::power {

PowerTrace::PowerTrace(std::size_t tiles, double budgetMw)
    : tiles_(tiles), budgetMw_(budgetMw)
{
    if (budgetMw_ <= 0.0)
        sim::fatal("power budget must be positive");
}

void
PowerTrace::record(sim::Tick tick, std::vector<double> tileMw)
{
    BLITZ_ASSERT(tileMw.size() == tiles_, "sample has ", tileMw.size(),
                 " tiles, trace expects ", tiles_);
    double total = std::accumulate(tileMw.begin(), tileMw.end(), 0.0);
    samples_.push_back(PowerSample{tick, std::move(tileMw), total});
}

double
PowerTrace::averageTotalMw() const
{
    if (samples_.size() < 2) {
        return samples_.empty() ? 0.0 : samples_.front().totalMw;
    }
    // Trapezoid-free left-Riemann integral: each sample's power holds
    // until the next sample, matching how the trace is produced.
    double weighted = 0.0;
    sim::Tick span = samples_.back().tick - samples_.front().tick;
    for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
        auto dt = static_cast<double>(samples_[i + 1].tick -
                                      samples_[i].tick);
        weighted += samples_[i].totalMw * dt;
    }
    return weighted / static_cast<double>(span);
}

double
PowerTrace::peakTotalMw() const
{
    double peak = 0.0;
    for (const auto &s : samples_)
        peak = std::max(peak, s.totalMw);
    return peak;
}

double
PowerTrace::capViolationFraction(double toleranceFrac) const
{
    if (samples_.empty())
        return 0.0;
    const double limit = budgetMw_ * (1.0 + toleranceFrac);
    std::size_t violations = 0;
    for (const auto &s : samples_) {
        if (s.totalMw > limit)
            ++violations;
    }
    return static_cast<double>(violations) /
           static_cast<double>(samples_.size());
}

std::string
PowerTrace::toCsv(const std::vector<std::string> &tileNames) const
{
    BLITZ_ASSERT(tileNames.size() == tiles_,
                 "tile name count mismatches trace width");
    std::ostringstream os;
    os << "tick,us";
    for (const auto &n : tileNames)
        os << ',' << n;
    os << ",total\n";
    for (const auto &s : samples_) {
        os << s.tick << ',' << sim::ticksToUs(s.tick);
        for (double p : s.tileMw)
            os << ',' << p;
        os << ',' << s.totalMw << '\n';
    }
    return os.str();
}

} // namespace blitz::power
