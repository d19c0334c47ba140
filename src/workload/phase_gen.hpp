/**
 * @file
 * Random activity-phase generator.
 *
 * Section I frames scalability in terms of the accelerator-level
 * workload phase duration T_w: if each accelerator starts or ends a
 * phase once per T_w on average, an N-accelerator SoC sees an activity
 * change every T_w / N. This generator produces exactly that stochastic
 * process — per-tile exponential on/off phases with mean T_w — and is
 * used by the scalability experiments to stress power-management
 * response under sustained churn.
 */

#ifndef BLITZ_WORKLOAD_PHASE_GEN_HPP
#define BLITZ_WORKLOAD_PHASE_GEN_HPP

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace blitz::workload {

/** One activity-change event. */
struct PhaseEvent
{
    sim::Tick when = 0;
    std::uint32_t tile = 0;
    bool startsExecution = false; ///< true: phase begins; false: ends
};

/** Parameters of the on/off churn process. */
struct PhaseGenConfig
{
    /** Mean phase duration T_w (ticks). */
    sim::Tick meanPhaseTicks = 0;
    /** Fraction of tiles initially executing. */
    double initialActiveFraction = 0.5;
};

/**
 * Generates a deterministic (seeded) stream of per-tile phase events,
 * pre-sorted by time.
 */
class PhaseGenerator
{
  public:
    /**
     * @param tiles number of managed tiles.
     * @param cfg churn parameters.
     * @param seed RNG seed.
     */
    PhaseGenerator(std::uint32_t tiles, const PhaseGenConfig &cfg,
                   std::uint64_t seed);

    /** Initial activity state per tile. */
    const std::vector<bool> &initialActive() const { return active0_; }

    /**
     * Generate all events in [0, horizon], sorted by time.
     * Each tile alternates on/off with Exp(meanPhase) durations.
     */
    std::vector<PhaseEvent> generate(sim::Tick horizon);

  private:
    std::uint32_t tiles_;
    PhaseGenConfig cfg_;
    sim::Rng rng_;
    std::vector<bool> active0_;
};

} // namespace blitz::workload

#endif // BLITZ_WORKLOAD_PHASE_GEN_HPP
