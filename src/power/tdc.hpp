/**
 * @file
 * Counter-based time-to-digital converter.
 *
 * The UVFR feedback comparator is deliberately simple: count rising
 * edges of the tile's ring-oscillator clock over a fixed window of NoC
 * cycles (Section IV-A). The code is therefore a quantized frequency
 * reading in units of F_noc / window, and the same conversion maps a
 * target frequency to a target code.
 */

#ifndef BLITZ_POWER_TDC_HPP
#define BLITZ_POWER_TDC_HPP

#include <cstdint>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace blitz::power {

/** Counter-based frequency-to-code converter. */
class Tdc
{
  public:
    /**
     * @param windowCycles measurement window in NoC cycles. @pre > 0.
     * @param nocFreqMhz reference clock frequency (MHz).
     */
    explicit Tdc(int windowCycles = 64, double nocFreqMhz = 800.0);

    /** Digital code produced when measuring a tile clock (edges). */
    int measure(double tileFreqMhz) const;

    /** Code corresponding to a target frequency (same quantization). */
    int codeFor(double targetFreqMhz) const;

    /** Center frequency represented by a code (MHz). */
    double freqOf(int code) const;

    /** Frequency quantum of one code step (MHz). */
    double resolutionMhz() const { return nocFreqMhz_ / window_; }

  private:
    int window_;
    double nocFreqMhz_;
};

} // namespace blitz::power

#endif // BLITZ_POWER_TDC_HPP
