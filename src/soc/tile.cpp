#include "tile.hpp"

#include <algorithm>
#include <cmath>

#include "record/recorder.hpp"
#include "sim/logging.hpp"

namespace blitz::soc {

namespace {

/** Tile-clock cycles executed per NoC tick at a frequency. */
double
cyclesPerTick(double freqMhz)
{
    return freqMhz / (sim::nocFrequencyHz / 1e6);
}

/** Work below this many cycles counts as finished. */
constexpr double completionEpsilon = 0.5;

/**
 * Residual switching activity of an idle tile whose clock still runs
 * (the free-running oscillator keeps toggling while coins drain).
 */
constexpr double idleActivityFraction = 0.15;

} // namespace

AcceleratorTile::AcceleratorTile(sim::EventQueue &eq, noc::NodeId id,
                                 std::string name,
                                 const power::PfCurve &curve,
                                 power::UvfrConfig uvfrCfg)
    : eq_(eq), id_(id), name_(std::move(name)), curve_(&curve),
      uvfr_([&] {
          // The ring oscillator replicates this tile's critical path:
          // at the curve's top voltage it runs at the tile's Fmax.
          uvfrCfg.ro.fMaxMhz = curve.fMax();
          uvfrCfg.ro.vNominal = curve.points().back().voltage;
          uvfrCfg.ldo.vMax = curve.points().back().voltage;
          return uvfrCfg;
      }()),
      completion_(eq, [this] { finishCheck(); }),
      loop_(eq, [this] { controlStep(); })
{
    // A cap asserted before the first PM actuation must clamp the
    // regulator's own initial target, not a stale zero.
    pmTargetMhz_ = uvfr_.targetMhz();
}

double
AcceleratorTile::powerMw() const
{
    double f = std::min(freqMhz(), curve_->fMax());
    double active = curve_->powerAt(f);
    if (busy_)
        return active;
    // Idle tile: datapath quiescent, clock tree and leakage remain
    // until the coin drain parks the supply at the 7.5x idle floor.
    return curve_->pIdle() +
           idleActivityFraction * std::max(active - curve_->pIdle(), 0.0);
}

void
AcceleratorTile::setFreqTargetMhz(double freqMhz)
{
    // Close the progress interval at the old frequency first: the
    // clock divider acts instantly when the target drops below the
    // oscillator output, so the effective frequency can change at
    // this very tick, before any control-loop step runs.
    accrueProgress();
    const double target = std::min(freqMhz, curve_->fMax());
    pmTargetMhz_ = target;
    // The physics-plane cap clamps after the PM's decision; the
    // journal keeps the uncapped request (the PM's actual output).
    uvfr_.setTargetMhz(std::min(target, capMhz_));
    if (recorder_)
        recorder_->pmActuation(eq_.now(), id_, target);
    accrualFreqMhz_ = this->freqMhz();
    scheduleCompletion();
    kickControlLoop();
}

void
AcceleratorTile::setThrottleCapMhz(double capMhz)
{
    accrueProgress();
    capMhz_ = capMhz;
    uvfr_.setTargetMhz(std::min(pmTargetMhz_, capMhz_));
    accrualFreqMhz_ = this->freqMhz();
    scheduleCompletion();
    kickControlLoop();
}

void
AcceleratorTile::injectSupplyDroopV(double droopV)
{
    accrueProgress();
    uvfr_.injectDroopV(droopV);
    accrualFreqMhz_ = this->freqMhz();
    scheduleCompletion();
    kickControlLoop();
}

void
AcceleratorTile::accrueProgress()
{
    const sim::Tick now = eq_.now();
    if (busy_ && now > lastAccrual_) {
        double done = cyclesPerTick(accrualFreqMhz_) *
                      static_cast<double>(now - lastAccrual_);
        done = std::min(done, remainingCycles_);
        remainingCycles_ -= done;
        cyclesDone_ += done;
    }
    lastAccrual_ = now;
    accrualFreqMhz_ = freqMhz();
}

void
AcceleratorTile::scheduleCompletion()
{
    const double rate = cyclesPerTick(accrualFreqMhz_);
    if (!busy_ || rate <= 0.0) {
        completion_.disarm(); // idle, or clock parked until coins arrive
        return;
    }
    // A zero-length remainder finishes on the next tick.
    const auto ticks =
        remainingCycles_ <= completionEpsilon
            ? sim::Tick{1}
            : static_cast<sim::Tick>(std::ceil(remainingCycles_ / rate));
    completion_.armIn(std::max<sim::Tick>(ticks, 1));
}

void
AcceleratorTile::finishCheck()
{
    accrueProgress();
    if (remainingCycles_ <= completionEpsilon) {
        busy_ = false;
        remainingCycles_ = 0.0;
        auto done = std::move(onComplete_);
        onComplete_ = nullptr;
        if (done)
            done();
    } else {
        scheduleCompletion(); // frequency changed mid-flight; re-aim
    }
}

void
AcceleratorTile::beginTask(double workCycles,
                           std::function<void()> onComplete)
{
    BLITZ_ASSERT(!busy_, "tile ", name_, " is already executing");
    BLITZ_ASSERT(workCycles > 0.0, "task with non-positive work");
    accrueProgress();
    busy_ = true;
    remainingCycles_ = workCycles;
    onComplete_ = std::move(onComplete);
    scheduleCompletion();
}

void
AcceleratorTile::controlStep()
{
    accrueProgress(); // close the interval at the pre-step frequency
    const double before = uvfr_.freqMhz();
    uvfr_.step();
    const double after = uvfr_.freqMhz();
    if (after != before) {
        accrualFreqMhz_ = after;
        scheduleCompletion();
    }
    // Loop reached steady state: stop stepping until the next target
    // change (kickControlLoop re-arms it).
    if (uvfr_.settled() && after == before)
        return;
    loop_.armIn(uvfr_.controlPeriod());
}

void
AcceleratorTile::kickControlLoop()
{
    if (!loop_.armed())
        loop_.armIn(uvfr_.controlPeriod());
}

} // namespace blitz::soc
