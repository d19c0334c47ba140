/**
 * @file
 * Every call the benchmark makes into the simulator.
 *
 * The workloads (workloads.cpp) construct instances, run them, settle
 * them and read their counters only through the functions here, and
 * name simulator types only through the aliases here. When a simulator
 * API is renamed — an attach surface, a counter getter, a config field —
 * this is the one file to fix, and the fix is a benchmark-only change.
 *
 * Calls used: public constructors, Soc::run, ChaosCluster::
 * runUntilConverged/quiesce/reconcile, MeshSim::runUntilConverged,
 * Soc::fillHealth, the attachPhysics/attachRecorder surfaces, and
 * counter getters (EventQueue::totalExecuted/depthHighWater,
 * Network::packetsSent/Delivered/Dropped, BlitzCoinUnit::exchanges*,
 * ClusterAudit::coinsMinted, IntegrityGuardian::quarantines,
 * MeshSim::totalExchanges/totalPackets, ThrottleArbiter::engages,
 * PhysicsPlane::steps/throttleResidency, FlightRecorder::totalAppended).
 */

#ifndef BENCH_ADAPTERS_HPP
#define BENCH_ADAPTERS_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "record/recorder.hpp"
#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "soc/throttler.hpp"
#include "sweep/sweep.hpp"
#include "trace/health.hpp"

namespace bench::adapt {

using Coins = blitz::coin::Coins;
using Tick = blitz::sim::Tick;
using SocConfig = blitz::soc::SocConfig;
using PmConfig = blitz::soc::PmConfig;
using Dag = blitz::workload::Dag;
using Soc = blitz::soc::Soc;
using PhysicsConfig = blitz::soc::PhysicsConfig;
using PhysicsPlane = blitz::soc::PhysicsPlane;
using Recorder = blitz::record::FlightRecorder;
using ChaosConfig = blitz::fault::ChaosConfig;
using Cluster = blitz::fault::ChaosCluster;
using MeshSim = blitz::coin::MeshSim;

inline double
ticksToUs(Tick t)
{
    return blitz::sim::ticksToUs(t);
}

/** Input stream @p index of a run rooted at @p root. */
inline std::uint64_t
streamSeed(std::uint64_t root, std::uint64_t index)
{
    return blitz::sweep::streamSeed(root, index);
}

// ---- per-layer counters -------------------------------------------------

/** Summable per-layer counts, grouped by the module that does the work. */
enum class Count : std::size_t
{
    // sim: event kernel
    Events,
    // noc: packet network
    PacketsSent,
    PacketsDelivered,
    PacketsDropped,
    // blitzcoin: packet-accurate units, audit, guardian
    ExchangesInitiated,
    ExchangesMoved,
    ExchangesTimedOut,
    UpdatesRecovered,
    ExchangesAbandoned,
    AuditMinted,
    Quarantines,
    // coin: behavioral engine
    MeshExchanges,
    MeshPackets,
    // power: physics plane
    PhysicsSteps,
    ThrottleEngages,
    ThrottleResidency, ///< tile-steps under a cap
    TileSteps,         ///< physics steps x accelerator tiles
    // record: flight recorder
    Recorded,
    Size_
};

/**
 * Per-layer outcome counters of one instance, cumulative since its
 * construction. Subtracting two reads of one long-lived instance gives
 * an op's delta; a fresh per-op instance's read is its delta already.
 */
struct Counters
{
    std::array<std::uint64_t, static_cast<std::size_t>(Count::Size_)> n{};
    /** Event-queue depth high-water mark: max-folded, never differenced. */
    std::uint64_t queueDepthHwm = 0;

    std::uint64_t &
    operator[](Count c)
    {
        return n[static_cast<std::size_t>(c)];
    }

    std::uint64_t
    operator[](Count c) const
    {
        return n[static_cast<std::size_t>(c)];
    }

    Counters &
    operator+=(const Counters &o)
    {
        for (std::size_t i = 0; i < n.size(); ++i)
            n[i] += o.n[i];
        queueDepthHwm = std::max(queueDepthHwm, o.queueDepthHwm);
        return *this;
    }

    /** Delta since @p earlier; the high-water mark stays this read's. */
    Counters
    since(const Counters &earlier) const
    {
        Counters d = *this;
        for (std::size_t i = 0; i < n.size(); ++i)
            d.n[i] -= earlier.n[i];
        return d;
    }
};

inline void
addUnit(Counters &c, const blitz::blitzcoin::BlitzCoinUnit &u)
{
    c[Count::ExchangesInitiated] += u.exchangesInitiated();
    c[Count::ExchangesMoved] += u.exchangesMoved();
    c[Count::ExchangesTimedOut] += u.exchangesTimedOut();
    c[Count::UpdatesRecovered] += u.updatesRecovered();
    c[Count::ExchangesAbandoned] += u.exchangesAbandoned();
}

inline void
addKernelAndNoc(Counters &c, blitz::sim::EventQueue &eq,
                const blitz::noc::Network &net)
{
    c[Count::Events] = eq.totalExecuted();
    c.queueDepthHwm = eq.depthHighWater();
    c[Count::PacketsSent] = net.packetsSent();
    c[Count::PacketsDelivered] = net.packetsDelivered();
    c[Count::PacketsDropped] = net.packetsDropped();
}

// ---- SoC ----------------------------------------------------------------

/** The 6x6 silicon prototype and its PM-cluster workload (Fig. 19). */
inline SocConfig
siliconSoc()
{
    return blitz::soc::make6x6SiliconSoc();
}

inline Dag
siliconWorkload(const SocConfig &cfg, int accels)
{
    return blitz::soc::siliconWorkload(cfg, accels);
}

inline constexpr double siliconBudgetMw = blitz::soc::budgets::silicon;

/** The 3x3 autonomous-vehicle SoC and its dependent workload. */
inline SocConfig
avSoc()
{
    return blitz::soc::make3x3AvSoc();
}

inline Dag
avDependent(const SocConfig &cfg, int frames)
{
    return blitz::soc::avDependent(cfg, frames);
}

inline constexpr double avBudgetMw = blitz::soc::budgets::av30Percent;

inline std::size_t
acceleratorCount(const SocConfig &cfg)
{
    return cfg.allAccelerators().size();
}

/** Decentralized BlitzCoin management at @p budgetMw. */
inline PmConfig
blitzCoinPm(double budgetMw)
{
    PmConfig pm;
    pm.kind = blitz::soc::PmKind::BlitzCoin;
    pm.budgetMw = budgetMw;
    return pm;
}

inline std::unique_ptr<Soc>
buildSoc(const SocConfig &cfg, const PmConfig &pm, std::uint64_t seed)
{
    return std::make_unique<Soc>(cfg, pm, seed);
}

/** What one SoC run produced. */
struct SocOutcome
{
    bool completed = false;
    Tick execTicks = 0; ///< last task completion
    Tick endTick = 0;   ///< model time the run advanced to
    std::uint64_t responses = 0;
    double responseUsSum = 0.0;
    Coins clusterCoins = 0;
    Coins poolCoins = 0;
};

inline SocOutcome
runSoc(Soc &s, const Dag &dag)
{
    const blitz::soc::SocRunStats st = s.run(dag);
    const auto &pm = dynamic_cast<blitz::soc::BlitzCoinPm &>(s.pm());
    SocOutcome o;
    o.completed = st.completed;
    o.execTicks = st.execTime;
    o.endTick = s.eventQueue().now();
    o.responses = st.responseTicks.count();
    o.responseUsSum =
        st.meanResponseUs() * static_cast<double>(o.responses);
    o.clusterCoins = pm.clusterCoins();
    o.poolCoins = pm.scale().poolCoins;
    return o;
}

inline Counters
readCounters(Soc &s)
{
    Counters c;
    addKernelAndNoc(c, s.eventQueue(), s.network());
    auto &pm = dynamic_cast<blitz::soc::BlitzCoinPm &>(s.pm());
    for (blitz::noc::NodeId id : s.config().managedAccelerators())
        addUnit(c, pm.unit(id));
    c[Count::AuditMinted] =
        static_cast<std::uint64_t>(pm.audit().coinsMinted());
    if (pm.guardian())
        c[Count::Quarantines] = pm.guardian()->quarantines();
    return c;
}

// ---- physics plane and observers ---------------------------------------

/**
 * Thermal-emergency limiter (bench_thermal's cell): a fast thermal path
 * (tau = 300 us) and a per-tile trip at @p tripC capping to 40% Fmax.
 */
inline PhysicsConfig
thermalTrip(double tripC)
{
    PhysicsConfig phys;
    phys.thermal.node.cJPerC = 1e-6;
    phys.trip.tripC = tripC;
    phys.trip.releaseC = tripC - 0.5;
    phys.trip.capFraction = 0.4;
    phys.enforce = true;
    return phys;
}

/**
 * Brownout limiter (bench_thermal's cell): every accelerator on one
 * shared rail with an overcurrent latch at @p limitMa.
 */
inline PhysicsConfig
railLimit(double limitMa)
{
    PhysicsConfig phys;
    blitz::soc::RailSpec spec;
    spec.rail.vNominal = 0.85;
    spec.rail.limitMa = limitMa;
    spec.rail.releaseFraction = 0.6;
    spec.capFraction = 0.4;
    spec.droopV = 0.05;
    phys.rails.push_back(spec);
    phys.enforce = true;
    return phys;
}

inline std::unique_ptr<PhysicsPlane>
buildPhysics(const PhysicsConfig &cfg)
{
    return std::make_unique<PhysicsPlane>(cfg);
}

/** The always-on black box: a bounded ring of @p chunks chunks. */
inline std::unique_ptr<Recorder>
buildRingRecorder(std::uint32_t chunks)
{
    blitz::record::RecorderConfig cfg;
    cfg.maxChunks = chunks;
    return std::make_unique<Recorder>(cfg);
}

inline void
attachPhysics(Soc &s, PhysicsPlane &plane)
{
    s.attachPhysics(plane);
}

inline void
attachRecorder(Soc &s, Recorder &rec)
{
    s.attachRecorder(&rec);
}

inline void
addPhysics(Counters &c, const PhysicsPlane &plane, std::size_t accels)
{
    c[Count::PhysicsSteps] += plane.steps();
    c[Count::ThrottleEngages] += plane.arbiter().engages();
    c[Count::ThrottleResidency] += plane.throttleResidency();
    c[Count::TileSteps] += plane.steps() * accels;
}

inline std::uint64_t
recordedTotal(const Recorder &rec)
{
    return rec.totalAppended();
}

/** What the observer pass over one monitored run reports. */
struct Observation
{
    std::uint64_t ringDigest = 0;
    /** The health report's deterministic section, in insertion order. */
    std::vector<double> health;
};

/**
 * The observer pass a monitored SoC pays after every run: fill the
 * health report and digest the recorder ring.
 */
inline Observation
observe(const Soc &s, const Recorder &rec)
{
    blitz::trace::HealthReport report;
    s.fillHealth(report);
    Observation o;
    o.ringDigest = rec.digest();
    for (const auto &entry : report.deterministic())
        o.health.push_back(entry.second);
    return o;
}

// ---- packet-accurate clusters -------------------------------------------

/** The fault and attack mixes of the chaos workload. */
enum class ChaosMix : std::uint8_t
{
    Lossy,     ///< drop/dup/corrupt at 5/2/2%
    Crash,     ///< 5% drop, two tiles crash and restart, audit on
    Partition, ///< 2% drop, a timed column partition, audit on
    Byzantine, ///< Inflator/Spammer/StuckGreedy, guardian on
};

/** Model tick by which every timed fault window of a mix has cleared. */
inline constexpr Tick kFaultQuietTick = 12'000;

/** Cluster config of one chaos mix on a @p d x @p d mesh (unseeded). */
inline ChaosConfig
chaosConfig(ChaosMix mix, int d)
{
    ChaosConfig cc;
    cc.width = d;
    cc.height = d;
    cc.fault.coinTrafficOnly = true;
    const auto n = static_cast<blitz::noc::NodeId>(d * d);
    switch (mix) {
    case ChaosMix::Lossy:
        cc.fault.base.drop = 0.05;
        cc.fault.base.duplicate = 0.02;
        cc.fault.base.corrupt = 0.02;
        break;
    case ChaosMix::Crash:
        cc.fault.base.drop = 0.05;
        cc.fault.outages.push_back({n / 2, 3'000, kFaultQuietTick, false});
        cc.fault.outages.push_back({1, 5'000, kFaultQuietTick, false});
        cc.auditPeriod = 4'096;
        break;
    case ChaosMix::Partition:
        cc.fault.base.drop = 0.02;
        cc.fault.partitions.push_back(blitz::fault::columnPartition(
            blitz::noc::Topology(d, d, false), d / 2 - 1, 2'000,
            kFaultQuietTick));
        cc.auditPeriod = 4'096;
        break;
    case ChaosMix::Byzantine: {
        using blitz::fault::ByzantineBehavior;
        blitz::fault::ByzantineSpec inflator;
        inflator.node = static_cast<blitz::noc::NodeId>(n / 2);
        inflator.behavior = ByzantineBehavior::Inflator;
        inflator.amount = 8;
        inflator.period = 512;
        blitz::fault::ByzantineSpec spammer;
        spammer.node = 1;
        spammer.behavior = ByzantineBehavior::Spammer;
        blitz::fault::ByzantineSpec greedy;
        greedy.node = 2;
        greedy.behavior = ByzantineBehavior::StuckGreedy;
        cc.byzantine.specs = {inflator, spammer, greedy};
        cc.guardianEnabled = true;
        cc.auditPeriod = 4'096;
        break;
    }
    }
    return cc;
}

/**
 * @p cc with every random stream rooted at @p seed, allocating from the
 * sweep's per-thread arena as bench_chaos trials do.
 */
inline ChaosConfig
seededTrial(ChaosConfig cc, std::uint64_t seed)
{
    cc.arena = &blitz::sim::threadArena();
    cc.seedBase = seed;
    cc.fault.seed = seed;
    cc.byzantine.seed = seed;
    return cc;
}

/** A fault-free @p d x @p d cluster on the default (legacy) engine. */
inline ChaosConfig
quietClusterConfig(int d, std::uint64_t seed)
{
    ChaosConfig cc;
    cc.width = d;
    cc.height = d;
    cc.seedBase = seed;
    cc.fault.seed = seed;
    return cc;
}

inline std::unique_ptr<Cluster>
buildCluster(const ChaosConfig &cc)
{
    return std::make_unique<Cluster>(cc);
}

inline std::size_t
tiles(const Cluster &c)
{
    return c.size();
}

inline void
setMax(Cluster &c, std::size_t i, Coins max)
{
    c.setMax(i, max);
}

inline void
setHas(Cluster &c, std::size_t i, Coins has)
{
    c.setHas(i, has);
}

/** Freeze the current total as the audited pool and start every unit. */
inline void
sealAndStart(Cluster &c)
{
    c.sealProvision();
    c.startAll();
}

inline Tick
now(Cluster &c)
{
    return c.eq().now();
}

inline void
runUntil(Cluster &c, Tick t)
{
    c.eq().runUntil(t);
}

inline std::optional<Tick>
converge(Cluster &c, double tol, Tick checkEvery, Tick deadline)
{
    return c.runUntilConverged(tol, checkEvery, deadline);
}

/**
 * Drain, run the audit watchdog, and return the pre-sweep gap.
 * ChaosCluster::quiesce throws sim::PanicError when the sweep fails to
 * restore the provisioned total exactly.
 */
inline Coins
quiesce(Cluster &c, Tick drainTicks)
{
    return c.quiesce(drainTicks).gap;
}

/** Stop every unit's exchange engine (incoming traffic is still served). */
inline void
stopAll(Cluster &c)
{
    for (std::size_t i = 0; i < c.size(); ++i)
        c.unit(i).stop();
}

/** One watchdog sweep; returns the gap it closed. */
inline Coins
reconcile(Cluster &c)
{
    return c.reconcile().gap;
}

/** Coins held by alive, non-quarantined units. */
inline Coins
totalCoins(const Cluster &c)
{
    return c.totalCoins();
}

/** Provisioned total the audit defends. */
inline Coins
provisioned(Cluster &c)
{
    return c.audit().expected();
}

inline Counters
readCounters(Cluster &c)
{
    Counters k;
    addKernelAndNoc(k, c.eq(), c.net());
    for (std::size_t i = 0; i < c.size(); ++i)
        addUnit(k, c.unit(i));
    k[Count::AuditMinted] =
        static_cast<std::uint64_t>(c.audit().coinsMinted());
    if (c.guardian())
        k[Count::Quarantines] = c.guardian()->quarantines();
    return k;
}

/**
 * Run @p n replications of @p fn serially on the deterministic sweep
 * harness (one thread, per-replication arena reset) and fold them in
 * index order.
 */
template <typename Acc, typename Fn, typename Merge>
Acc
sweepSerial(std::size_t n, std::uint64_t root, Fn &&fn, Merge &&merge,
            Acc acc)
{
    blitz::sweep::SweepOptions opts;
    opts.threads = 1;
    return blitz::sweep::runSweepFold<Acc>(n, root, std::forward<Fn>(fn),
                                           std::forward<Merge>(merge),
                                           std::move(acc), opts);
}

// ---- behavioral engine --------------------------------------------------

/** A d x d behavioral mesh with the paper's default engine (Eq. 5.1). */
inline std::unique_ptr<MeshSim>
buildMeshSim(int d, std::uint64_t seed)
{
    return std::make_unique<MeshSim>(blitz::noc::Topology::square(d),
                                     blitz::coin::EngineConfig{}, seed);
}

inline std::size_t
tiles(const MeshSim &m)
{
    return m.ledger().size();
}

inline void
setMax(MeshSim &m, std::size_t i, Coins max)
{
    m.setMax(i, max);
}

/** Scatter @p pool coins uniformly at random (seeded by the engine). */
inline void
scatter(MeshSim &m, Coins pool)
{
    m.randomizeHas(pool);
}

inline Tick
now(const MeshSim &m)
{
    return m.now();
}

/** Outcome of a behavioral convergence run. */
struct MeshRun
{
    bool converged = false;
    Tick time = 0; ///< tick of the converging exchange
};

inline MeshRun
converge(MeshSim &m, double errThreshold, Tick deadline)
{
    const blitz::coin::RunResult r =
        m.runUntilConverged(errThreshold, deadline);
    return {r.converged, r.time};
}

/** Coins summed tile by tile (independent of the ledger's running sum). */
inline Coins
heldCoins(const MeshSim &m)
{
    Coins sum = 0;
    for (std::size_t i = 0; i < m.ledger().size(); ++i)
        sum += m.ledger().has(i);
    return sum;
}

inline Coins
ledgerTotal(const MeshSim &m)
{
    return m.ledger().totalHas();
}

inline Counters
readCounters(const MeshSim &m)
{
    Counters c;
    c[Count::MeshExchanges] = m.totalExchanges();
    c[Count::MeshPackets] = m.totalPackets();
    return c;
}

} // namespace bench::adapt

#endif // BENCH_ADAPTERS_HPP
