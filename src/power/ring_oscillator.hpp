/**
 * @file
 * Free-running ring-oscillator clock source (critical-path replica).
 *
 * Each BlitzCoin tile derives its clock from a local ring oscillator
 * supplied by the tile voltage and tuned as a Critical Path Replica:
 * for any supply V it oscillates close to the tile's maximum safe
 * frequency at V (Section IV-A). Because the oscillator slows down with
 * the supply, voltage droops automatically stretch the clock — the UVFR
 * property that removes the need for transient-IR guardbands.
 */

#ifndef BLITZ_POWER_RING_OSCILLATOR_HPP
#define BLITZ_POWER_RING_OSCILLATOR_HPP

#include "sim/logging.hpp"

namespace blitz::power {

/** Configuration of one ring oscillator. */
struct RingOscillatorConfig
{
    double fMaxMhz = 800.0; ///< frequency at the nominal voltage (MHz)
    double vNominal = 1.0;  ///< voltage producing fMaxMhz (V)
    double vThreshold = 0.30; ///< voltage at which oscillation stops (V)
    /**
     * Multiplicative process-variation factor; silicon replicas differ
     * slightly tile-to-tile, which the TDC feedback loop absorbs.
     */
    double processFactor = 1.0;
};

/** Voltage-to-frequency transfer of the tile clock source. */
class RingOscillator
{
  public:
    explicit RingOscillator(
        const RingOscillatorConfig &cfg = RingOscillatorConfig{});

    /** Oscillation frequency at a supply voltage (MHz); 0 below Vt. */
    double freqAt(double voltage) const;

    double fMaxMhz() const { return cfg_.fMaxMhz * cfg_.processFactor; }

  private:
    RingOscillatorConfig cfg_;
};

} // namespace blitz::power

#endif // BLITZ_POWER_RING_OSCILLATOR_HPP
