#include "ring_oscillator.hpp"

#include <algorithm>

namespace blitz::power {

RingOscillator::RingOscillator(const RingOscillatorConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.vNominal <= cfg_.vThreshold)
        sim::fatal("ring oscillator nominal voltage must exceed Vt");
    if (cfg_.fMaxMhz <= 0.0 || cfg_.processFactor <= 0.0)
        sim::fatal("ring oscillator frequency parameters must be positive");
}

double
RingOscillator::freqAt(double voltage) const
{
    if (voltage <= cfg_.vThreshold)
        return 0.0;
    // Alpha-power-law delay model linearized around the operating range:
    // the critical-path replica frequency grows linearly in (V - Vt).
    double f = fMaxMhz() * (voltage - cfg_.vThreshold) /
               (cfg_.vNominal - cfg_.vThreshold);
    return std::max(f, 0.0);
}

} // namespace blitz::power
