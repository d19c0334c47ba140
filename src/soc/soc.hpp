/**
 * @file
 * Full-SoC simulation harness.
 *
 * Assembles the pieces the paper's RTL testbench assembles: the mesh
 * NoC at a fixed 800 MHz, one UVFR-clocked accelerator tile per
 * accelerator slot, a power manager (BC / BC-C / C-RR / Static), and a
 * CPU-side dispatcher that launches DAG workloads onto the tiles. A run
 * produces the quantities the evaluation section reports: execution
 * time, power-management response times, and a sampled power trace.
 */

#ifndef BLITZ_SOC_SOC_HPP
#define BLITZ_SOC_SOC_HPP

#include <memory>
#include <string>
#include <vector>

#include "config.hpp"
#include "noc/network.hpp"
#include "pm.hpp"
#include "power/power_trace.hpp"
#include "sim/event_queue.hpp"
#include "throttler.hpp"
#include "tile.hpp"
#include "workload/dag.hpp"
#include "workload/trace.hpp"

namespace blitz::trace {
class HealthReport;
class Registry;
class Tracer;
}

namespace blitz::soc {

/** Result of one workload run. */
struct SocRunStats
{
    /** Tick at which the last task completed (0 if none ran). */
    sim::Tick execTime = 0;
    /** True when every task finished inside the horizon. */
    bool completed = false;
    /** Power-management response times (ticks). */
    sim::Summary responseTicks;
    /** Sampled accelerator power trace. */
    std::unique_ptr<power::PowerTrace> trace;
    /** Total NoC packets (coin + control traffic). */
    std::uint64_t nocPackets = 0;
    /**
     * Tile-activity edges observed during the run, with coin targets
     * attached — replayable on the behavioral engine for fast
     * design-space sweeps (workload::ActivityTrace::replayOn).
     */
    workload::ActivityTrace activity;

    double
    execTimeUs() const
    {
        return sim::ticksToUs(execTime);
    }

    double
    meanResponseUs() const
    {
        return responseTicks.mean() * sim::nsPerTick * 1e-3;
    }
};

/** Run options. */
struct SocRunOptions
{
    /** Abort horizon (ticks). */
    sim::Tick maxTime = sim::msToTicks(50.0);
    /** Power sampling cadence (ticks); 400 = 0.5 us at 800 MHz. */
    sim::Tick sampleInterval = 400;
    /** CPU dispatch cost per task launch (cycles). */
    sim::Tick dispatchLatency = 64;
};

/**
 * One simulated SoC instance. Build, then run one workload; create a
 * fresh instance per run (state is not reset between runs).
 */
class Soc
{
  public:
    /**
     * @param config tile grid (copied; validated).
     * @param pmCfg power-management strategy and budget.
     * @param seed determinism seed for the whole instance.
     */
    Soc(SocConfig config, const PmConfig &pmCfg, std::uint64_t seed = 1);

    ~Soc();
    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    const SocConfig &config() const { return config_; }
    PowerManager &pm() { return *pm_; }
    noc::Network &network() { return *net_; }
    sim::EventQueue &eventQueue() { return eq_; }

    /** Accelerator tile at a node. @pre the node hosts an accelerator. */
    AcceleratorTile &tile(noc::NodeId id);

    /**
     * Attach the physics plane: the RC thermal network, shared
     * regulator rails, and throttler arbiter step on the run's power
     * sampling cadence and clamp tile frequencies through the
     * setThrottleCapMhz funnel. Call before run(); the plane must
     * outlive this Soc, and at most one plane may be attached. A Soc
     * without a plane pays one null check per run; a plane with
     * enforce=false observes without actuating, digest-identical to
     * a detached run.
     */
    void attachPhysics(PhysicsPlane &plane);

    /**
     * Register the instance's observables on @p reg (the PM's gauges —
     * for BC that includes per-unit coin balances — plus reconstructed
     * accelerator power, NoC packet counters, and event-kernel
     * counters) and sample them every @p interval ticks during run()
     * (0 = the run's power sampleInterval). Call before run(); nullptr
     * (the default) schedules nothing, so golden digests are
     * untouched.
     */
    void attachMetrics(trace::Registry *reg, sim::Tick interval = 0);

    /**
     * Wire an event tracer into the power manager (and, for BC, every
     * coin unit). Nullptr detaches.
     */
    void attachTrace(trace::Tracer *t);

    /**
     * Wire the flight recorder into the NoC (deliveries), every
     * accelerator tile (PM actuations via the setFreqTargetMhz
     * funnel) and the physics plane, in any attach order. Call before
     * run(); nullptr detaches.
     */
    void attachRecorder(record::FlightRecorder *rec);

    /** Execute a workload to completion (or the horizon). */
    SocRunStats run(const workload::Dag &dag,
                    const SocRunOptions &opts = SocRunOptions{});

    /** Sum of instantaneous accelerator power (mW). */
    double totalAccelPowerMw() const;

    /**
     * Sum the instance's deterministic outcome counters into
     * @p report: NoC totals, event-kernel gauges, and throttle
     * residency when a physics plane is attached. Call after run().
     */
    void fillHealth(trace::HealthReport &report) const;

  private:
    void dispatchReady();
    void onTaskDone(workload::TaskId id);
    void registerPhysicsMetrics(trace::Registry &reg);
    /**
     * The one place that says which component sees the tracer and
     * the recorder. Every attach method stores its pointer and calls
     * this; it only re-stores pointers, so it is idempotent.
     */
    void rewire();

    SocConfig config_;
    sim::EventQueue eq_;
    std::unique_ptr<noc::Network> net_;
    std::vector<std::unique_ptr<AcceleratorTile>> tileStore_;
    std::vector<AcceleratorTile *> tilesByNode_;
    std::unique_ptr<PowerManager> pm_;
    PhysicsPlane *physics_ = nullptr;    ///< not owned; may be null
    trace::Registry *metrics_ = nullptr; ///< not owned; may be null
    sim::Tick metricsEvery_ = 0;
    trace::Tracer *tracer_ = nullptr;    ///< not owned; may be null
    record::FlightRecorder *recorder_ = nullptr; ///< not owned

    // Per-run scheduler state.
    workload::ActivityTrace *activityTrace_ = nullptr;
    const workload::Dag *dag_ = nullptr;
    std::vector<std::size_t> remainingDeps_;
    std::vector<bool> taskDone_;
    std::vector<std::vector<workload::TaskId>> tileQueues_; ///< by node
    std::size_t tasksCompleted_ = 0;
    sim::Tick lastCompletionTick_ = 0;
};

} // namespace blitz::soc

#endif // BLITZ_SOC_SOC_HPP
