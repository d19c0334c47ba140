/**
 * @file
 * Accelerator tile model: UVFR-clocked task execution.
 *
 * Each accelerator tile owns a UVFR instance (Fig. 10). The power
 * manager in the NoC domain feeds it frequency targets; the tile clock
 * then slews as the LDO/RO loop settles, and the accelerator consumes
 * its task's work at whatever frequency the clock currently runs.
 * Power is reconstructed from the tile's characterization curve at the
 * instantaneous frequency — exactly how the paper derives its power
 * traces from RTL simulations (Section V-A).
 */

#ifndef BLITZ_SOC_TILE_HPP
#define BLITZ_SOC_TILE_HPP

#include <functional>
#include <limits>
#include <string>

#include "noc/topology.hpp"
#include "power/pf_curve.hpp"
#include "power/uvfr.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::soc {

/**
 * One accelerator tile: UVFR + execution engine.
 */
class AcceleratorTile
{
  public:
    /**
     * @param eq shared event queue.
     * @param id node id (for reports).
     * @param name tile name (for reports).
     * @param curve the tile's power/frequency characterization.
     * @param uvfrCfg regulator parameters; the RO config is overridden
     *        to act as this tile's critical-path replica.
     */
    AcceleratorTile(sim::EventQueue &eq, noc::NodeId id,
                    std::string name, const power::PfCurve &curve,
                    power::UvfrConfig uvfrCfg = power::UvfrConfig{});

    const power::PfCurve &curve() const { return *curve_; }

    /** Set the UVFR frequency target (MHz); from the PM layer. */
    void setFreqTargetMhz(double freqMhz);

    /**
     * Set the physics-plane frequency cap (MHz); kUncappedMhz
     * (infinity) clears it. The UVFR is always programmed with
     * min(PM target, cap) — the throttler clamps *after* the coin
     * protocol's decision, and the PM's uncapped request is retained
     * so a release restores it exactly. With the cap at its default
     * (infinity) this path is bit-identical to a cap-free tile.
     */
    void setThrottleCapMhz(double capMhz);

    /**
     * Inject a supply droop into this tile's UVFR (brownout transient
     * from a sagging shared rail) and let the control loop recover.
     */
    void injectSupplyDroopV(double droopV);

    /**
     * Attach the flight recorder (nullptr detaches). Every frequency
     * target programmed by the PM layer — this is the single actuation
     * funnel all PM policies go through — is journaled as a
     * PmActuation record in milli-MHz.
     */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    /** Present clock frequency (MHz), after regulator dynamics. */
    double freqMhz() const { return uvfr_.freqMhz(); }

    /** Present supply voltage (V). */
    double voltage() const { return uvfr_.voltage(); }

    /** Instantaneous power (mW); the idle floor when the clock stops. */
    double powerMw() const;

    /** True while a task is executing. */
    bool busy() const { return busy_; }

    /**
     * Begin executing a task.
     * @param workCycles work at the tile clock (cycles at any F).
     * @param onComplete invoked at the completion tick.
     * @pre !busy().
     */
    void beginTask(double workCycles, std::function<void()> onComplete);

    /** Total tile-cycles executed across all tasks. */
    double totalCyclesExecuted() const { return cyclesDone_; }

    const power::Uvfr &uvfr() const { return uvfr_; }

  private:
    /** Fold elapsed time into task progress at the previous frequency. */
    void accrueProgress();

    /** (Re)arm the completion timer at the current frequency. */
    void scheduleCompletion();

    /** Completion-timer body: finish or re-aim after a speed change. */
    void finishCheck();

    /** One UVFR control iteration plus execution bookkeeping. */
    void controlStep();

    /** Ensure the control loop is running. */
    void kickControlLoop();

    sim::EventQueue &eq_;
    noc::NodeId id_;
    std::string name_;
    const power::PfCurve *curve_;
    power::Uvfr uvfr_;
    record::FlightRecorder *recorder_ = nullptr;

    double pmTargetMhz_ = 0.0;
    double capMhz_ = std::numeric_limits<double>::infinity();

    bool busy_ = false;
    double remainingCycles_ = 0.0;
    double cyclesDone_ = 0.0;
    std::function<void()> onComplete_;
    sim::Tick lastAccrual_ = 0;
    double accrualFreqMhz_ = 0.0;
    sim::Timer completion_; ///< armed while a running task can finish
    sim::Timer loop_;       ///< armed while the UVFR loop is stepping
};

} // namespace blitz::soc

#endif // BLITZ_SOC_TILE_HPP
