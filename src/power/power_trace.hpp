/**
 * @file
 * Sampled per-tile power trace.
 *
 * Mirrors the paper's evaluation flow: at the end of an RTL simulation
 * the authors extract each tile's instantaneous frequency and
 * reconstruct its power from the Fig. 13 curves. Here the SoC model
 * samples the reconstructed power directly at a fixed cadence and the
 * trace answers the questions the figures ask: was the cap respected,
 * what was the budget utilization, what did the transition look like.
 */

#ifndef BLITZ_POWER_POWER_TRACE_HPP
#define BLITZ_POWER_POWER_TRACE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace blitz::power {

/** One sample row: time plus per-tile power. */
struct PowerSample
{
    sim::Tick tick = 0;
    std::vector<double> tileMw;
    double totalMw = 0.0;
};

/** Accumulates samples and computes trace-level metrics. */
class PowerTrace
{
  public:
    /**
     * @param tiles number of per-tile columns.
     * @param budgetMw SoC power budget for utilization/cap checks.
     */
    PowerTrace(std::size_t tiles, double budgetMw);

    /** Append one sample. @pre tileMw.size() == tiles. */
    void record(sim::Tick tick, std::vector<double> tileMw);

    std::size_t sampleCount() const { return samples_.size(); }
    const std::vector<PowerSample> &samples() const { return samples_; }

    /** Time-weighted average total power (mW). */
    double averageTotalMw() const;

    /** Peak total power over the trace (mW). */
    double peakTotalMw() const;

    /** P_avg / P_budget, the paper's utilization metric (Fig. 19). */
    double
    budgetUtilization() const
    {
        return averageTotalMw() / budgetMw_;
    }

    /**
     * Fraction of samples where total power exceeded the budget by more
     * than @p toleranceFrac (transient coin motion briefly overshoots).
     */
    double capViolationFraction(double toleranceFrac = 0.02) const;

    /** Dump as CSV: tick,us,tile0..tileN,total. */
    std::string toCsv(const std::vector<std::string> &tileNames) const;

  private:
    std::size_t tiles_;
    double budgetMw_;
    std::vector<PowerSample> samples_;
};

} // namespace blitz::power

#endif // BLITZ_POWER_POWER_TRACE_HPP
