/**
 * @file
 * Unified Voltage and Frequency Regulator.
 *
 * The UVFR closes one loop instead of the conventional two (Fig. 9):
 * the controller receives a *frequency* target, compares it against the
 * TDC reading of the tile's ring-oscillator clock, and adjusts the LDO
 * code with a PID law. The supply voltage is therefore always the
 * minimum that sustains the requested frequency — no IR-drop guardbands
 * — and the clock inherently tracks droops because the oscillator is a
 * critical-path replica.
 */

#ifndef BLITZ_POWER_UVFR_HPP
#define BLITZ_POWER_UVFR_HPP

#include <algorithm>

#include "ldo.hpp"
#include "pid.hpp"
#include "ring_oscillator.hpp"
#include "sim/types.hpp"
#include "tdc.hpp"

namespace blitz::power {

/** Full per-tile regulator configuration. */
struct UvfrConfig
{
    LdoConfig ldo{};
    RingOscillatorConfig ro{};
    int tdcWindow = 64;
    double nocFreqMhz = 800.0;
    PidConfig pid{};
    /** Control-loop period in NoC cycles. */
    sim::Tick controlPeriod = 8;
};

/**
 * One tile's unified V/F regulator.
 *
 * The instance is passive: the owning tile calls step() once per
 * control period (controlPeriod() NoC cycles). This keeps the component
 * unit-testable without an event queue.
 */
class Uvfr
{
  public:
    explicit Uvfr(const UvfrConfig &cfg = UvfrConfig{});

    /** Set the frequency target (MHz); quantized to TDC resolution. */
    void setTargetMhz(double freqMhz);

    /** Requested target frequency (MHz, post-quantization). */
    double targetMhz() const { return tdc_.freqOf(targetCode_); }

    /** One control-loop iteration (advance LDO, measure, correct). */
    void step();

    /**
     * Present tile clock frequency (MHz).
     *
     * The delivered clock is the replica-oscillator output, optionally
     * divided down to the target: below the LDO's minimum-voltage
     * frequency the supply cannot drop further, so the clock divider
     * provides the paper's "frequency can be further reduced at
     * minimum voltage" idle mode (Section V-A, Fig. 13 extension).
     */
    double
    freqMhz() const
    {
        return std::min(ro_.freqAt(ldo_.voltage()), targetMhz());
    }

    /** Undivided replica-oscillator frequency (MHz). */
    double oscFreqMhz() const { return ro_.freqAt(ldo_.voltage()); }

    /** Present tile supply voltage (V). */
    double voltage() const { return ldo_.voltage(); }

    /** True once the TDC reading matches the target within one LSB. */
    bool settled() const;

    /**
     * Inject a supply droop of @p deltaV volts (PDN transient, e.g. a
     * neighboring tile's load step on the shared input rail). The
     * replica oscillator slows immediately — the clock stretches with
     * the supply, which is the UVFR property that removes transient
     * IR-drop guardbands (Section IV-A, refs [58]-[60]) — and the
     * control loop then restores the operating point.
     */
    void injectDroopV(double deltaV);

    /**
     * Frequency a conventional fixed-clock design would keep running
     * at during a droop (its PLL does not track the supply): the
     * target frequency, regardless of the present voltage. When this
     * exceeds the replica frequency, a guardband-less fixed-clock
     * tile would be violating timing.
     */
    double
    fixedClockMhz() const
    {
        return targetMhz();
    }

    sim::Tick controlPeriod() const { return cfg_.controlPeriod; }

    const Tdc &tdc() const { return tdc_; }

  private:
    UvfrConfig cfg_;
    Ldo ldo_;
    RingOscillator ro_;
    Tdc tdc_;
    Pid pid_;
    int targetCode_ = 0;
    int lastTdcCode_ = 0;
};

} // namespace blitz::power

#endif // BLITZ_POWER_UVFR_HPP
