#include "soc.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "record/recorder.hpp"
#include "sim/logging.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace blitz::soc {

namespace {

/** A chain that runs `work` every `period` ticks while armed. */
struct Chain
{
    Chain(sim::EventQueue &eq, sim::Priority prio, sim::Tick period,
          std::function<void()> work)
        : work(std::move(work)), period(period),
          timer(eq, [this] {
              this->work();
              timer.armIn(this->period);
          }, prio)
    {
    }

    std::function<void()> work;
    sim::Tick period;
    sim::Timer timer;
};

} // namespace

Soc::Soc(SocConfig config, const PmConfig &pmCfg, std::uint64_t seed)
    : config_(std::move(config))
{
    config_.validate();
    noc::Topology topo(config_.width, config_.height, /*wrap=*/false);
    net_ = std::make_unique<noc::Network>(eq_, topo);

    tilesByNode_.assign(config_.size(), nullptr);
    for (noc::NodeId id = 0; id < config_.size(); ++id) {
        const TileSpec &spec = config_.tile(id);
        if (spec.type != TileType::Accel)
            continue;
        tileStore_.push_back(std::make_unique<AcceleratorTile>(
            eq_, id, spec.name, *spec.curve));
        tilesByNode_[id] = tileStore_.back().get();
    }

    PmContext ctx{eq_, *net_, config_, tilesByNode_, seed};
    pm_ = makePowerManager(ctx, pmCfg);

    // Route every node's service-plane deliveries into the manager
    // (BlitzCoin units, controller, and tile CSRs all live there).
    for (noc::NodeId id = 0; id < config_.size(); ++id) {
        net_->setHandler(id, [this, id](const noc::Packet &pkt) {
            pm_->handlePacket(id, pkt);
        });
    }
}

void
Soc::attachPhysics(PhysicsPlane &plane)
{
    BLITZ_ASSERT(physics_ == nullptr,
                 "a physics plane is already attached");
    physics_ = &plane;
    plane.bind(config_, tilesByNode_);
    rewire();
    if (metrics_)
        registerPhysicsMetrics(*metrics_);
}

void
Soc::registerPhysicsMetrics(trace::Registry &reg)
{
    reg.sampled("physics.max_temp_c",
                [this] { return physics_->thermal().maxC(); });
    reg.sampled("physics.mean_temp_c",
                [this] { return physics_->thermal().meanC(); });
    reg.sampled("physics.throttled_tiles", [this] {
        return static_cast<double>(physics_->arbiter().throttledCount());
    });
    reg.sampled("physics.rail_max_load", [this] {
        return physics_->rails().maxLoadFraction();
    });
    reg.sampled("physics.throttle_engages", [this] {
        return static_cast<double>(physics_->arbiter().engages());
    });
}

void
Soc::attachMetrics(trace::Registry *reg, sim::Tick interval)
{
    metrics_ = reg;
    metricsEvery_ = interval;
    if (!reg)
        return;
    pm_->registerMetrics(*reg);
    reg->sampled("soc.power_mw", [this] { return totalAccelPowerMw(); });
    reg->sampled("noc.packets_sent", [this] {
        return static_cast<double>(net_->packetsSent());
    });
    reg->sampled("noc.packets_delivered", [this] {
        return static_cast<double>(net_->packetsDelivered());
    });
    reg->sampled("noc.packets_dropped", [this] {
        return static_cast<double>(net_->packetsDropped());
    });
    reg->sampled("noc.total_hops", [this] {
        return static_cast<double>(net_->totalHops());
    });
    reg->sampled("sim.events_scheduled", [this] {
        return static_cast<double>(eq_.totalScheduled());
    });
    reg->sampled("sim.events_executed", [this] {
        return static_cast<double>(eq_.totalExecuted());
    });
    if (physics_)
        registerPhysicsMetrics(*reg);
}

void
Soc::attachTrace(trace::Tracer *t)
{
    tracer_ = t;
    rewire();
}

void
Soc::attachRecorder(record::FlightRecorder *rec)
{
    recorder_ = rec;
    rewire();
}

void
Soc::rewire()
{
    // The PM (and, for BC, its coin units) sees the tracer only: the
    // recorder journals actuations at the tile funnel instead.
    pm_->setTrace(tracer_);
    net_->setRecorder(recorder_);
    for (auto &t : tileStore_)
        t->setRecorder(recorder_);
    if (physics_)
        physics_->setRecorder(recorder_);
}

Soc::~Soc() = default;

AcceleratorTile &
Soc::tile(noc::NodeId id)
{
    BLITZ_ASSERT(id < tilesByNode_.size() && tilesByNode_[id],
                 "node ", id, " is not an accelerator tile");
    return *tilesByNode_[id];
}

double
Soc::totalAccelPowerMw() const
{
    double total = 0.0;
    for (const auto &t : tileStore_)
        total += t->powerMw();
    return total;
}

void
Soc::fillHealth(trace::HealthReport &report) const
{
    report.bumpDet("soc.tasks_completed",
                   static_cast<double>(tasksCompleted_));
    net_->fillHealth(report);
    if (physics_)
        physics_->fillHealth(report);
    trace::fillQueueHealth(report, eq_);
}

void
Soc::dispatchReady()
{
    BLITZ_ASSERT(dag_ != nullptr, "dispatch without a workload");
    for (const workload::Task &t : dag_->tasks()) {
        if (taskDone_[t.id] || remainingDeps_[t.id] != 0)
            continue;
        AcceleratorTile *tile = tilesByNode_[t.tile];
        BLITZ_ASSERT(tile != nullptr,
                     "task '", t.name, "' targets a non-accel tile");
        auto &queue = tileQueues_[t.tile];
        if (std::find(queue.begin(), queue.end(), t.id) == queue.end())
            queue.push_back(t.id);
        remainingDeps_[t.id] = static_cast<std::size_t>(-1); // queued
    }
    // Start the head-of-line task on every idle tile.
    for (noc::NodeId node = 0; node < tileQueues_.size(); ++node) {
        auto &queue = tileQueues_[node];
        if (queue.empty())
            continue;
        AcceleratorTile *tile = tilesByNode_[node];
        if (tile->busy())
            continue;
        workload::TaskId id = queue.front();
        queue.erase(queue.begin());
        const workload::Task &t = dag_->task(id);
        pm_->onTaskStart(node);
        if (activityTrace_)
            activityTrace_->record(eq_.now(), node, true);
        tile->beginTask(t.workCycles, [this, id] { onTaskDone(id); });
    }
}

void
Soc::onTaskDone(workload::TaskId id)
{
    const workload::Task &t = dag_->task(id);
    taskDone_[id] = true;
    ++tasksCompleted_;
    lastCompletionTick_ = eq_.now();

    // The tile goes idle unless more work is queued on it; either way
    // the manager sees the activity edge.
    pm_->onTaskEnd(t.tile);
    if (activityTrace_)
        activityTrace_->record(eq_.now(), t.tile, false);

    for (workload::TaskId s : dag_->successors(id)) {
        BLITZ_ASSERT(remainingDeps_[s] > 0, "dependency underflow");
        --remainingDeps_[s];
    }
    // Dispatch after the CPU notices the completion interrupt.
    eq_.scheduleIn(1, [this] { dispatchReady(); },
                   sim::Priority::Controller);
}

SocRunStats
Soc::run(const workload::Dag &dag, const SocRunOptions &opts)
{
    dag.validate();
    dag_ = &dag;
    remainingDeps_.assign(dag.size(), 0);
    taskDone_.assign(dag.size(), false);
    tileQueues_.assign(config_.size(), {});
    tasksCompleted_ = 0;
    lastCompletionTick_ = 0;
    for (const workload::Task &t : dag.tasks())
        remainingDeps_[t.id] = t.deps.size();

    SocRunStats stats;
    // Trace the managed tiles: that is the domain the budget governs
    // (unmanaged accelerators sit outside the PM cluster's cap).
    const auto accels = config_.managedAccelerators();
    std::vector<std::string> names;
    for (noc::NodeId id : accels)
        names.push_back(config_.tile(id).name);
    stats.trace = std::make_unique<power::PowerTrace>(
        accels.size(), pm_->budgetMw());
    activityTrace_ = &stats.activity;
    for (noc::NodeId id : accels)
        stats.activity.setTargetCoins(id, std::max<coin::Coins>(
            pm_->maxCoins()[id], 1));

    // The run's periodic chains re-arm timers local to run(), so none
    // stays queued once it returns. Power sampling: the paper
    // reconstructs traces the same way (per-tile frequency -> Fig. 13
    // curve -> power).
    Chain power(eq_, sim::Priority::Stats, opts.sampleInterval, [&] {
        std::vector<double> row;
        row.reserve(accels.size());
        for (noc::NodeId id : accels)
            row.push_back(tilesByNode_[id]->powerMw());
        stats.trace->record(eq_.now(), std::move(row));
    });
    power.timer.arm(0);
    std::optional<Chain> metrics;
    if (metrics_) {
        metrics.emplace(eq_, sim::Priority::Stats,
                        metricsEvery_ > 0 ? metricsEvery_
                                          : opts.sampleInterval,
                        [this] { metrics_->sample(eq_.now()); });
        metrics->timer.arm(0);
    }
    // Physics stepping rides the sampler cadence. Each firing
    // integrates the *preceding* interval, so the chain starts one
    // interval in (temperatures at t=0 are the initial condition).
    std::optional<Chain> physics;
    if (physics_) {
        const double dtNs =
            static_cast<double>(opts.sampleInterval) * sim::nsPerTick;
        physics.emplace(eq_, sim::Priority::Stats, opts.sampleInterval,
                        [this, dtNs] { physics_->step(dtNs, eq_.now()); });
        physics->timer.armIn(opts.sampleInterval);
    }

    pm_->start();
    eq_.scheduleIn(opts.dispatchLatency, [this] { dispatchReady(); },
                   sim::Priority::Controller);

    // Drive the event loop up to the exact completion event; the
    // trailing PM traffic then gets a short settling window.
    while (tasksCompleted_ < dag.size() && eq_.now() < opts.maxTime &&
           !eq_.empty()) {
        eq_.runOne();
    }
    stats.completed = tasksCompleted_ == dag.size();
    if (stats.completed && lastCompletionTick_ + 2000 < opts.maxTime &&
        lastCompletionTick_ + 2000 > eq_.now()) {
        // Capture the post-workload power decay in the trace.
        eq_.runUntil(lastCompletionTick_ + 2000);
    }

    stats.execTime = lastCompletionTick_;
    stats.responseTicks = pm_->responseTimes();
    stats.nocPackets = net_->packetsSent();
    activityTrace_ = nullptr;
    dag_ = nullptr;
    return stats;
}

} // namespace blitz::soc
