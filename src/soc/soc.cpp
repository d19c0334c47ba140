#include "soc.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "record/recorder.hpp"
#include "sim/logging.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/prof.hpp"
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

    if (config_.shards >= 1) {
        // Sharding is only sound for the fully decentralized manager:
        // per-node units own their state and packets execute at their
        // destination's locus. The centralized schemes mutate one
        // controller object from every node's deliveries.
        BLITZ_ASSERT(pmCfg.kind == PmKind::BlitzCoin,
                     "sharded Soc requires the decentralized BC manager");
        // Column bands: more shards than columns would own no node.
        const auto width = static_cast<std::uint32_t>(config_.width);
        const std::uint32_t shards = std::min(config_.shards, width);
        group_ = std::make_unique<sim::ShardGroup>(
            eq_, shards,
            sim::columnBands(width,
                             static_cast<std::uint32_t>(config_.height),
                             shards));
        net_->enableSharding(*group_);
    }

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
    // Flits the fault plane damaged fail the endpoint CRC and are
    // discarded here, before any manager sees the garbled payload.
    for (noc::NodeId id = 0; id < config_.size(); ++id) {
        net_->setHandler(id, [this, id](const noc::Packet &pkt) {
            if (pkt.corrupted)
                return;
            pm_->handlePacket(id, pkt);
        });
    }
}

void
Soc::installFaultPlane(fault::FaultPlane &plane)
{
    BLITZ_ASSERT(fault_ == nullptr, "a fault plane is already installed");
    fault_ = &plane;
    plane.attach(*net_);
    plane.onNodeDown = [this](noc::NodeId n) { pm_->onNodeCrash(n); };
    plane.onNodeUp = [this](noc::NodeId n) { pm_->onNodeRestart(n); };
    plane.onNodeFrozen = [this](noc::NodeId n) { pm_->onNodeFrozen(n); };
    plane.onNodeThawed = [this](noc::NodeId n) { pm_->onNodeThawed(n); };
    if (group_)
        plane.enableKeyedStreams(group_->shards());
    plane.armOutageSchedule(eq_);
    rewire();
}

void
Soc::installByzantinePlan(fault::ByzantinePlan &plan)
{
    BLITZ_ASSERT(byz_ == nullptr,
                 "a byzantine plan is already installed");
    byz_ = &plan;
    pm_->installByzantine(plan);
    rewire();
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
    // Sharded deliveries append from parallel phases; flip the
    // recorder's mutex on before the first concurrent append.
    if (recorder_ && group_)
        recorder_->setConcurrent(true);
    // The PM (and, for BC, its coin units) sees the tracer only: the
    // recorder journals actuations at the tile funnel instead.
    pm_->setTrace(tracer_);
    net_->setRecorder(recorder_);
    for (auto &t : tileStore_)
        t->setRecorder(recorder_);
    if (fault_) {
        fault_->setTrace(tracer_);
        fault_->setRecorder(recorder_);
    }
    if (byz_) {
        byz_->setTrace(tracer_);
        byz_->setRecorder(recorder_);
    }
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
    if (fault_)
        fault_->fillHealth(report);
    if (physics_)
        physics_->fillHealth(report);
    trace::fillQueueHealth(report, eq_);
    if (group_)
        trace::fillShardHealth(report, *group_);
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
        if (group_) {
            // The completion event fires at the tile's own locus (a
            // coin arrival can re-aim it from there), where the global
            // scheduler state is off-limits. Park the completion in
            // the node's latch; the serial-lane scan picks it up.
            tile->beginTask(t.workCycles, [this, id, node] {
                pendingDoneTask_[node] = static_cast<std::uint32_t>(id) + 1;
                pendingDoneTick_[node] = eq_.now();
            });
        } else {
            tile->beginTask(t.workCycles,
                            [this, id] { onTaskDone(id, eq_.now()); });
        }
    }
}

void
Soc::drainCompletions()
{
    // Latches are written at tile loci, so a single scan can hold
    // completions from different ticks in any node order; process them
    // in (tick, node) order — the activity trace requires monotonic
    // edges, and the deterministic sort keeps the drain shard-count
    // invariant.
    drainBuf_.clear();
    for (noc::NodeId node = 0; node < pendingDoneTask_.size(); ++node) {
        if (pendingDoneTask_[node] == 0)
            continue;
        drainBuf_.push_back({pendingDoneTick_[node],
                             static_cast<std::uint64_t>(node),
                             pendingDoneTask_[node] - 1});
        pendingDoneTask_[node] = 0;
    }
    std::sort(drainBuf_.begin(), drainBuf_.end());
    for (const auto &d : drainBuf_)
        onTaskDone(static_cast<workload::TaskId>(d[2]), d[0]);
}

void
Soc::onTaskDone(workload::TaskId id, sim::Tick completedAt)
{
    const workload::Task &t = dag_->task(id);
    taskDone_[id] = true;
    ++tasksCompleted_;
    lastCompletionTick_ = completedAt;

    // The tile goes idle unless more work is queued on it; either way
    // the manager sees the activity edge.
    pm_->onTaskEnd(t.tile);
    if (activityTrace_)
        activityTrace_->record(completedAt, t.tile, false);

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
    pendingDoneTask_.assign(config_.size(), 0);
    pendingDoneTick_.assign(config_.size(), 0);
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
    // Priority::Stats places it in the serial lane of a sharded run —
    // quiesced, fixed order — so throttle decisions and the tile caps
    // they actuate are bit-identical at every shard count.
    std::optional<Chain> physics;
    if (physics_) {
        const double dtNs =
            static_cast<double>(opts.sampleInterval) * sim::nsPerTick;
        physics.emplace(eq_, sim::Priority::Stats, opts.sampleInterval,
                        [this, dtNs] { physics_->step(dtNs, eq_.now()); });
        physics->timer.armIn(opts.sampleInterval);
    }
    // Sharded: the serial-lane completion scan. Completion latches are
    // written at tile loci during parallel phases; this chain reads
    // them between supersteps (quiesced, fixed node order) and runs
    // the dispatcher — dispatch latency is quantized to the scan
    // cadence, which is identical at every shard count.
    std::optional<Chain> completions;
    if (group_) {
        completions.emplace(eq_, sim::Priority::Controller, /*period=*/32,
                            [this] { drainCompletions(); });
        completions->timer.arm(0);
    }

    pm_->start();
    eq_.scheduleIn(opts.dispatchLatency, [this] { dispatchReady(); },
                   sim::Priority::Controller);

    // Drive the event loop; stop pumping once all tasks completed and
    // the trailing PM traffic has had a short settling window.
    if (group_) {
        // A sharded anchor has no runOne() (events live in leaf queues
        // on worker threads), so pump bounded supersteps and test the
        // completion predicate at each barrier. The stride only decides
        // how far past completion the run coasts; it is identical at
        // every shard count, so sharded results stay shard-count
        // invariant (they differ from the legacy path, which stops on
        // the exact completion event).
        constexpr sim::Tick kStride = 512;
        while (tasksCompleted_ < dag.size() && eq_.now() < opts.maxTime &&
               !eq_.empty()) {
            eq_.runUntil(std::min(opts.maxTime, eq_.now() + kStride));
        }
    } else {
        while (tasksCompleted_ < dag.size() && eq_.now() < opts.maxTime &&
               !eq_.empty()) {
            eq_.runOne();
        }
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
