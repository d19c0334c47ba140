/**
 * @file
 * Digital low-drop-out regulator model.
 *
 * The paper's per-tile regulator is a fully-synthesizable LDO stepping
 * the tile supply between V_min and V_in - dropout under a digital code
 * (Section IV-A). The model captures the two properties the system
 * depends on: a quantized code-to-voltage transfer function and a finite
 * slew rate, so downstream logic sees voltage (and therefore frequency)
 * transitions rather than instantaneous jumps — the behaviour measured
 * in Fig. 19 (bottom right).
 */

#ifndef BLITZ_POWER_LDO_HPP
#define BLITZ_POWER_LDO_HPP

#include <cstdint>

#include "sim/logging.hpp"

namespace blitz::power {

/** Configuration of one LDO instance. */
struct LdoConfig
{
    double vMin = 0.45;        ///< output at code 0 (V)
    double vMax = 1.0;         ///< output at full code (V)
    int codeBits = 7;          ///< code width; 7 bits = 128 settings
    double slewVPerUs = 20.0;  ///< output slew rate (V/us)
};

/**
 * LDO with quantized target voltage and slew-limited output.
 *
 * The instance is advanced explicitly by step(dtNs); the UVFR control
 * loop owns the cadence.
 */
class Ldo
{
  public:
    explicit Ldo(const LdoConfig &cfg = LdoConfig{});

    /** Number of distinct codes. */
    int codes() const { return codes_; }

    /** Current control code. */
    int code() const { return code_; }

    /** Set the control code (clamped to the valid range). */
    void setCode(int code);

    /** Target voltage implied by a code (V). */
    double voltageForCode(int code) const;

    /** Present (slew-limited) output voltage (V). */
    double voltage() const { return voltage_; }

    /** Force the output voltage (initialization / test hooks). */
    void
    forceVoltage(double v)
    {
        voltage_ = v;
    }

    /** Advance the analog output by dtNs nanoseconds. */
    void step(double dtNs);

  private:
    LdoConfig cfg_;
    int codes_;
    int code_ = 0;
    double voltage_;
};

} // namespace blitz::power

#endif // BLITZ_POWER_LDO_HPP
