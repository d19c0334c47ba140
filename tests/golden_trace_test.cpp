/**
 * @file
 * Golden-trace pin of the event kernel's observable behavior.
 *
 * These tests freeze the bit-exact outputs of the two benches that
 * exercise the full stack — the Fig. 1 behavioral convergence grid and
 * the chaos fault sweep — as FNV-1a digests. The constants were
 * recorded against the reference kernel (std::function entries in a
 * binary priority_queue, per-hop NoC lambdas) at the seed of PR 3;
 * any scheduler or NoC fast-path rewrite must reproduce them
 * bit-for-bit, at every sweep thread count, or it changed observable
 * semantics rather than just speed.
 *
 * If a future PR changes *intended* behavior (protocol, routing,
 * fault model), re-record the constants with `--regen` (rewrites
 * golden_digests.inc in the source tree) in the same commit and say so
 * in its description; an unexplained digest change is a determinism
 * regression.
 *
 * The observability plane is compiled into every library here but
 * disabled by default (null hook pointers, no sampler events), so the
 * recorded constants double as the "tracing off is free of side
 * effects" pin; the Observed* tests additionally assert that turning
 * tracing and metrics ON leaves the digests bit-identical — observers
 * read state and touch no RNG, so they must never perturb a run.
 */

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "record/recorder.hpp"
#include "soc/pm_impl.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "soc/throttler.hpp"
#include "sweep/sweep.hpp"
#include "trace/attach.hpp"
#include "trace/metrics.hpp"
#include "trace/prof.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace blitz;

/** FNV-1a over explicitly-fed 64-bit words (doubles by bit pattern). */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ------------------------------------------------- fig01 configuration
// Mirrors bench_fig01_scalability.cpp's measureDecentralized() grid.

double
convergeUs(int d, std::uint64_t seed, bool observed = false)
{
    coin::EngineConfig cfg; // paper defaults
    trace::Registry reg;
    coin::MeshSim sim(noc::Topology::square(d), cfg, seed);
    if (observed)
        trace::attachMeshMetrics(sim, reg, /*interval=*/2048);
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < sim.ledger().size(); ++i) {
        coin::Coins m = 8 << (i % 3);
        sim.setMax(i, m);
        demand += m;
    }
    sim.clusterHas(demand / 2);
    auto r = sim.runUntilConverged(1.0, sim::msToTicks(20.0));
    return r.converged ? sim::ticksToUs(r.time) : -1.0;
}

std::uint64_t
fig01Digest(std::size_t threads)
{
    constexpr std::array<int, 3> ds{4, 6, 8};
    constexpr std::size_t seedsPerPoint = 20;
    sweep::SweepOptions opts;
    opts.threads = threads;
    auto times = sweep::runSweep(
        ds.size() * seedsPerPoint, /*rootSeed=*/1,
        [&](std::size_t i, std::uint64_t seed) {
            return convergeUs(ds[i / seedsPerPoint], seed);
        },
        opts);
    Digest dg;
    for (double t : times)
        dg.f64(t);
    return dg.value();
}

// ------------------------------------------------- chaos configuration
// A representative subset of bench_chaos.cpp's scenario matrix (rates,
// duplication+corruption, crash windows, a timed partition, both mesh
// sizes) with the bench's exact per-trial construction.

struct GoldenScenario
{
    int d;
    double drop;
    double duplicate;
    double corrupt;
    bool crash;
    bool partition;
};

constexpr GoldenScenario kScenarios[] = {
    {4, 0.00, 0.00, 0.00, false, false},
    {4, 0.05, 0.00, 0.00, false, false},
    {4, 0.05, 0.02, 0.02, false, false},
    {4, 0.05, 0.00, 0.00, true, false},
    {4, 0.02, 0.00, 0.00, false, true},
    {6, 0.02, 0.00, 0.00, false, false},
    {6, 0.02, 0.00, 0.00, false, true},
};

constexpr sim::Tick faultQuietTick = 12'000;
constexpr sim::Tick deadline = 400'000;
constexpr double convergedTol = 2.5;

std::uint64_t
chaosTrialDigest(const GoldenScenario &sc, std::uint64_t seed,
                 bool observed = false,
                 record::FlightRecorder *rec = nullptr,
                 std::uint32_t shards = 0, bool profiled = false)
{
    fault::ChaosConfig cc;
    cc.width = sc.d;
    cc.height = sc.d;
    cc.shards = shards;
    // Exercise the arena-backed slab path under the determinism pin
    // (backing store must never affect results).
    cc.arena = &sim::threadArena();
    cc.seedBase = seed;
    cc.fault.seed = seed;
    cc.fault.coinTrafficOnly = true;
    cc.fault.base.drop = sc.drop;
    cc.fault.base.duplicate = sc.duplicate;
    cc.fault.base.corrupt = sc.corrupt;
    const auto n = static_cast<std::size_t>(sc.d * sc.d);
    if (sc.crash) {
        cc.fault.outages.push_back(
            {static_cast<noc::NodeId>(n / 2), 3'000, faultQuietTick,
             false});
        cc.fault.outages.push_back(
            {static_cast<noc::NodeId>(1), 5'000, faultQuietTick, false});
        cc.auditPeriod = 4'096;
    }
    if (sc.partition) {
        noc::Topology topo(sc.d, sc.d, false);
        cc.fault.partitions.push_back(fault::columnPartition(
            topo, sc.d / 2 - 1, 2'000, faultQuietTick));
        cc.auditPeriod = 4'096;
    }

    fault::ChaosCluster cluster(cc);
    // Observers attach before any event runs; they read state only, so
    // the digest below must not move.
    trace::Tracer tracer;
    trace::Registry reg;
    if (observed) {
        cluster.attachTrace(&tracer);
        cluster.attachMetrics(&reg, /*interval=*/1024);
    }
    if (rec)
        cluster.attachRecorder(rec);
    // The superstep profiler reads clocks and bumps its own counters
    // only; attaching it must leave the digest untouched (wall-clock
    // never feeds back into simulation).
    trace::SuperstepProfiler prof;
    if (profiled && cluster.shardGroup())
        prof.attach(*cluster.shardGroup());
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        coin::Coins m = bench::typeLevel(static_cast<int>(i) % 4);
        cluster.setMax(i, m);
        demand += m;
    }
    const coin::Coins pool = demand / 2;
    const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
    for (std::size_t i = 0; i < quarter; ++i) {
        coin::Coins share = pool / static_cast<coin::Coins>(quarter);
        if (i < static_cast<std::size_t>(
                    pool % static_cast<coin::Coins>(quarter)))
            ++share;
        cluster.setHas(i, share);
    }
    cluster.sealProvision();
    cluster.startAll();

    const sim::Tick quiet =
        (sc.crash || sc.partition) ? faultQuietTick : 0;
    if (quiet > 0)
        cluster.eq().runUntil(quiet);
    std::optional<sim::Tick> t =
        cluster.runUntilConverged(convergedTol, 64, deadline);

    Digest dg;
    dg.u64(t ? *t : ~std::uint64_t{0});
    auto report = cluster.quiesce(65'536);
    dg.i64(report.gap);
    dg.i64(report.counted);
    dg.u64(report.crashedUnits);
    dg.u64(cluster.eq().now());
    const auto &net = cluster.net();
    dg.u64(net.packetsSent());
    dg.u64(net.packetsDelivered());
    dg.u64(net.packetsDropped());
    dg.u64(net.totalHops());
    if (shards >= 1) {
        // Sharded runs pin the exact integer latency aggregates; the
        // Welford summary's fold order is partition-dependent and
        // asserts if read.
        dg.u64(net.latencyCount());
        dg.u64(net.latencySumTicks());
        dg.u64(net.latencyMaxTicks());
    } else {
        dg.u64(net.latency().count());
        dg.f64(net.latency().mean());
        dg.f64(net.latency().max());
    }
    const auto fs = cluster.plane().stats();
    dg.u64(fs.drops);
    dg.u64(fs.delays);
    dg.u64(fs.duplicates);
    dg.u64(fs.corruptions);
    dg.u64(fs.outageDrops);
    dg.u64(fs.partitionDrops);
    for (std::size_t i = 0; i < n; ++i) {
        dg.i64(cluster.unit(i).has());
        dg.u64(cluster.unit(i).updatesRecovered());
        dg.u64(cluster.unit(i).exchangesAbandoned());
        dg.u64(cluster.unit(i).duplicatesIgnored());
    }
    return dg.value();
}

std::uint64_t
chaosDigest(std::size_t threads)
{
    Digest all;
    std::uint64_t scenarioIdx = 0;
    for (const GoldenScenario &sc : kScenarios) {
        sweep::SweepOptions opts;
        opts.threads = threads;
        auto trials = sweep::runSweep(
            /*trials=*/4, sweep::streamSeed(2026, scenarioIdx++),
            [&sc](std::size_t, std::uint64_t seed) {
                return chaosTrialDigest(sc, seed);
            },
            opts);
        for (std::uint64_t d : trials)
            all.u64(d);
    }
    return all.value();
}

/**
 * Sharded pin: the same scenario matrix on the BSP shard kernel.
 * Keyed fault streams and per-source sequence numbers make this a
 * *different* (equally valid) fault pattern than the legacy pin, so
 * it gets its own constant — what it freezes is that shard counts
 * 1, 2 and 4 reproduce it bit-for-bit.
 */
std::uint64_t
shardedChaosDigest(std::uint32_t shards, bool profiled = false)
{
    Digest all;
    std::uint64_t scenarioIdx = 0;
    for (const GoldenScenario &sc : kScenarios) {
        for (std::uint64_t rep = 0; rep < 2; ++rep)
            all.u64(chaosTrialDigest(
                sc, sweep::streamSeed(2033, scenarioIdx * 16 + rep),
                /*observed=*/false, /*rec=*/nullptr, shards, profiled));
        ++scenarioIdx;
    }
    return all.value();
}

// --------------------------------------------- byzantine configuration
// Guardian-armed trials under the canned attacker roster of
// bench_byzantine.cpp (Inflator@18, Spammer@1, StuckGreedy@2). The pin
// covers attack injection, the shadow-accounting sweeps, the
// escalation ladder (including amnesty), quarantine shunning, and the
// remint reclaim — the whole robustness plane must be bit-identical at
// every sweep thread count and every shard count.

std::uint64_t
byzantineTrialDigest(int attackers, std::uint64_t seed,
                     std::uint32_t shards = 0, bool profiled = false)
{
    fault::ChaosConfig cc;
    cc.width = 6;
    cc.height = 6;
    cc.shards = shards;
    cc.arena = &sim::threadArena();
    cc.seedBase = seed;
    cc.fault.seed = seed;
    cc.byzantine.seed = seed;
    cc.guardianEnabled = true;
    cc.auditPeriod = 4'096;
    {
        using fault::ByzantineBehavior;
        fault::ByzantineSpec inflator;
        inflator.node = 18;
        inflator.behavior = ByzantineBehavior::Inflator;
        inflator.amount = 8;
        inflator.period = 512;
        fault::ByzantineSpec spammer;
        spammer.node = 1;
        spammer.behavior = ByzantineBehavior::Spammer;
        fault::ByzantineSpec greedy;
        greedy.node = 2;
        greedy.behavior = ByzantineBehavior::StuckGreedy;
        const fault::ByzantineSpec roster[] = {inflator, spammer,
                                               greedy};
        for (int i = 0; i < attackers; ++i)
            cc.byzantine.specs.push_back(roster[i]);
    }

    fault::ChaosCluster cluster(cc);
    trace::SuperstepProfiler prof;
    if (profiled && cluster.shardGroup())
        prof.attach(*cluster.shardGroup());
    const auto n = static_cast<std::size_t>(cc.width * cc.height);
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        coin::Coins m = bench::typeLevel(static_cast<int>(i) % 4);
        cluster.setMax(i, m);
        demand += m;
    }
    const coin::Coins pool = demand / 2;
    const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
    for (std::size_t i = 0; i < quarter; ++i) {
        coin::Coins share = pool / static_cast<coin::Coins>(quarter);
        if (i < static_cast<std::size_t>(
                    pool % static_cast<coin::Coins>(quarter)))
            ++share;
        cluster.setHas(i, share);
    }
    cluster.sealProvision();
    cluster.startAll();

    std::optional<sim::Tick> t =
        cluster.runUntilConverged(convergedTol, 64, deadline);

    Digest dg;
    dg.u64(t ? *t : ~std::uint64_t{0});
    for (std::size_t i = 0; i < n; ++i)
        cluster.unit(i).stop();
    cluster.eq().runUntil(cluster.eq().now() + 20'000);
    cluster.reconcile();

    const auto *g = cluster.guardian();
    dg.u64(g->sweepsRun());
    dg.u64(g->detections());
    dg.u64(g->warnings());
    dg.u64(g->throttles());
    dg.u64(g->quarantines());
    if (const auto *bp = cluster.byzantinePlan()) {
        const auto bs = bp->stats();
        dg.i64(bs.counterfeited);
        dg.u64(bs.pulses);
        dg.u64(bs.forgedReplies);
        dg.u64(bs.refusedPayouts);
        dg.u64(bs.staleReplays);
        dg.u64(bs.lyingStatuses);
    }
    dg.i64(cluster.audit().coinsMinted());
    dg.i64(cluster.audit().coinsBurned());
    dg.i64(cluster.totalCoins() - pool);
    dg.u64(cluster.eq().now());
    const auto &net = cluster.net();
    dg.u64(net.packetsSent());
    dg.u64(net.packetsDelivered());
    dg.u64(net.packetsDropped());
    dg.u64(net.totalHops());
    if (shards >= 1) {
        dg.u64(net.latencyCount());
        dg.u64(net.latencySumTicks());
        dg.u64(net.latencyMaxTicks());
    } else {
        dg.u64(net.latency().count());
        dg.f64(net.latency().mean());
        dg.f64(net.latency().max());
    }
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<noc::NodeId>(i);
        dg.i64(cluster.unit(i).has());
        dg.u64(static_cast<std::uint64_t>(g->health(id)));
        dg.i64(g->strikes(id));
        dg.u64(cluster.unit(i).shunnedDrops());
        dg.u64(cluster.unit(i).throttledDrops());
        dg.u64(cluster.unit(i).duplicatesIgnored());
    }
    return dg.value();
}

std::uint64_t
byzantineDigest(std::size_t threads)
{
    Digest all;
    std::uint64_t scenarioIdx = 0;
    for (int attackers : {1, 3}) {
        sweep::SweepOptions opts;
        opts.threads = threads;
        auto trials = sweep::runSweep(
            /*trials=*/2, sweep::streamSeed(2040, scenarioIdx++),
            [attackers](std::size_t, std::uint64_t seed) {
                return byzantineTrialDigest(attackers, seed);
            },
            opts);
        for (std::uint64_t d : trials)
            all.u64(d);
    }
    return all.value();
}

/** Sharded byzantine pin; same caveat as shardedChaosDigest. */
std::uint64_t
shardedByzantineDigest(std::uint32_t shards, bool profiled = false)
{
    Digest all;
    std::uint64_t scenarioIdx = 0;
    for (int attackers : {1, 3}) {
        for (std::uint64_t rep = 0; rep < 2; ++rep)
            all.u64(byzantineTrialDigest(
                attackers,
                sweep::streamSeed(2047, scenarioIdx * 16 + rep),
                shards, profiled));
        ++scenarioIdx;
    }
    return all.value();
}

// ----------------------------------------------- thermal configuration
// Physics-plane pin: a 4x4 vision SoC under the full limiter ladder —
// fast-tau thermal trips, an undersized shared rail that droops the
// supplies at the latch, and a board TDP just below the budget. The
// constant freezes the coupled closed loop (power -> RC junctions ->
// arbiter -> tile caps -> BlitzCoin reflow) at every sweep thread
// count; the observer/detached pair additionally pins that a
// non-enforcing plane is invisible to the run.

enum PhysicsMode
{
    kDetachedPhysics,  ///< no plane attached
    kObserverPhysics,  ///< attached, enforce = false (integrate only)
    kEnforcingPhysics, ///< attached, full limiter ladder active
};

/** Out-params for the non-vacuity check on the pinned scenario. */
struct ThermalProbe
{
    std::uint64_t engages = 0;
    std::uint64_t releases = 0;
    double peakTempC = 0.0;
};

soc::PhysicsConfig
goldenPhysicsConfig()
{
    soc::PhysicsConfig phys;
    phys.thermal.node.cJPerC = 1e-6; // tau = 300 us
    phys.trip.tripC = 52.0;
    phys.trip.releaseC = 50.0;
    phys.trip.capFraction = 0.5;
    phys.neighborCouplingWPerC = 1e-3;
    soc::RailSpec spec; // ~530 mA demand at the 450 mW budget
    spec.rail.vNominal = 0.85;
    spec.rail.limitMa = 450.0;
    spec.rail.releaseFraction = 0.8;
    spec.capFraction = 0.6;
    spec.droopV = 0.02;
    phys.rails.push_back(spec);
    phys.board.limitMw = 430.0;
    phys.board.capFraction = 0.7;
    return phys;
}

std::uint64_t
thermalTrialDigest(std::uint64_t seed, PhysicsMode mode = kEnforcingPhysics,
                   ThermalProbe *probe = nullptr)
{
    soc::PmConfig pm;
    pm.kind = soc::PmKind::BlitzCoin;
    pm.budgetMw = soc::budgets::vision33Percent;
    soc::Soc s(soc::make4x4VisionSoc(), pm, seed);

    soc::PhysicsConfig phys = goldenPhysicsConfig();
    phys.enforce = mode == kEnforcingPhysics;
    soc::PhysicsPlane plane(phys);
    if (mode != kDetachedPhysics)
        s.attachPhysics(plane);

    auto st = s.run(soc::visionDependent(s.config(), 2));

    Digest dg;
    dg.u64(st.completed ? 1 : 0);
    dg.u64(st.execTime);
    dg.u64(st.nocPackets);
    dg.u64(st.responseTicks.count());
    dg.f64(st.responseTicks.mean());
    dg.f64(st.responseTicks.max());
    // NOT totalExecuted(): the plane's sampler events are themselves
    // counted there, so an attached observer would trivially differ.
    dg.u64(s.eventQueue().now());
    const auto &net = s.network();
    dg.u64(net.packetsSent());
    dg.u64(net.packetsDelivered());
    dg.u64(net.totalHops());
    dg.f64(s.totalAccelPowerMw());
    auto &bc = dynamic_cast<soc::BlitzCoinPm &>(s.pm());
    dg.i64(bc.clusterCoins());
    dg.f64(bc.clusterError());
    if (mode == kEnforcingPhysics) {
        // The plane's own observables join the pin only when it acts
        // on the run, so the detached/observer digests stay comparable
        // to each other.
        dg.u64(plane.steps());
        dg.f64(plane.peakTempC());
        dg.u64(plane.boardEngaged() ? 1 : 0);
        const auto &arb = plane.arbiter();
        dg.u64(arb.engages());
        dg.u64(arb.releases());
        dg.u64(arb.updates());
        dg.u64(arb.throttledCount());
        const auto &th = plane.thermal();
        for (std::size_t i = 0; i < th.size(); ++i)
            dg.f64(th.temperatureC(i));
        const auto &rails = plane.rails();
        for (std::size_t r = 0; r < rails.size(); ++r) {
            dg.f64(rails.peakMa(r));
            dg.u64(rails.engageCount(r));
        }
    }
    if (probe) {
        probe->engages = plane.arbiter().engages();
        probe->releases = plane.arbiter().releases();
        probe->peakTempC = plane.peakTempC();
    }
    return dg.value();
}

std::uint64_t
thermalDigest(std::size_t threads)
{
    sweep::SweepOptions opts;
    opts.threads = threads;
    auto trials = sweep::runSweep(
        /*trials=*/3, sweep::streamSeed(2054, 0),
        [](std::size_t, std::uint64_t seed) {
            return thermalTrialDigest(seed);
        },
        opts);
    Digest all;
    for (std::uint64_t d : trials)
        all.u64(d);
    return all.value();
}

// ------------------------------------------------- MeshSim configuration
// The behavioral engine paths the fig01 grid never reaches: 4-way
// rounds, the loss model, thermal plus neighborhood caps, the open
// mesh, and setMax re-programming between runs and between short
// slices of one sweep, so a reschedule lands both before and after the
// tile's pending firing. Both run loops are driven.

struct MeshScenario
{
    coin::ExchangeMode mode;
    bool wrap;
    double loss;
    bool capped;
};

constexpr MeshScenario kMeshScenarios[] = {
    {coin::ExchangeMode::OneWay, true, 0.00, false},
    {coin::ExchangeMode::OneWay, false, 0.05, true},
    {coin::ExchangeMode::FourWay, true, 0.05, false},
    {coin::ExchangeMode::FourWay, false, 0.00, true},
    {coin::ExchangeMode::FourWay, true, 0.05, true},
};

std::uint64_t
meshSimTrialDigest(const MeshScenario &sc, std::uint64_t seed,
                   std::uint64_t *losses = nullptr)
{
    const noc::Topology topo(9, 7, sc.wrap);
    const std::size_t n = topo.size();
    coin::EngineConfig cfg;
    cfg.mode = sc.mode;
    cfg.wrap = sc.wrap;
    cfg.lossRate = sc.loss;
    if (sc.capped) {
        cfg.thermalCaps.assign(n, coin::uncapped);
        for (std::size_t i = 0; i < n; i += 5)
            cfg.thermalCaps[i] = 6;
        cfg.neighborhoodCap = 90;
    }
    coin::MeshSim sim(topo, cfg, seed);
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        coin::Coins m = 8 << (i % 3);
        sim.setMax(i, m);
        demand += m;
    }
    sim.clusterHas(demand / 2);

    Digest dg;
    auto fold = [&dg](const coin::RunResult &r) {
        dg.u64(r.converged ? 1 : 0);
        dg.u64(r.time);
        dg.u64(r.packets);
        dg.u64(r.exchanges);
    };
    constexpr sim::Tick budget = 150'000;
    fold(sim.runUntilConverged(1.0, budget));
    // A converging run stops at the firing's tick, so tiles due at
    // that same tick are still pending: re-programming them moves
    // their firing later, the rest earlier.
    for (std::size_t i = 0; i < n; i += 3)
        sim.setMax(i, 0);
    fold(sim.runFor(20'000));
    for (std::size_t k = 0; k < n; ++k) {
        sim.setMax((k * 7) % n, coin::Coins{4} << (k % 4));
        if (k % 8 == 7)
            fold(sim.runFor(37));
    }
    fold(sim.runUntilConverged(0.5, sim.now() + budget));
    for (std::size_t i = 1; i < n; i += 4)
        sim.setMax(i, 24);
    fold(sim.runFor(10'000));
    for (std::size_t i = 2; i < n; i += 5)
        sim.setMax(i, 0);
    fold(sim.runUntilConverged(1.0, sim.now() + budget));

    for (std::size_t i = 0; i < n; ++i)
        dg.i64(sim.ledger().has(i));
    dg.u64(sim.totalLosses());
    if (losses)
        *losses += sim.totalLosses();
    return dg.value();
}

std::uint64_t
meshSimDigest(std::uint64_t *losses = nullptr)
{
    Digest all;
    for (const MeshScenario &sc : kMeshScenarios) {
        for (std::uint64_t seed : {1u, 7919u})
            all.u64(meshSimTrialDigest(sc, seed, losses));
    }
    return all.value();
}

// Recorded against the reference kernel; see the file comment.
#include "golden_digests.inc"

TEST(GoldenTrace, Fig01GridMatchesRecordedDigest)
{
    for (std::size_t threads : {1u, 2u, 4u})
        EXPECT_EQ(fig01Digest(threads), kGoldenFig01)
            << "threads=" << threads;
}

TEST(GoldenTrace, MeshSimScenariosMatchRecordedDigest)
{
    std::uint64_t losses = 0;
    EXPECT_EQ(meshSimDigest(&losses), kGoldenMeshSim);
    // Non-vacuity: the lossy scenarios really lost legs.
    EXPECT_GT(losses, 0u);
}

TEST(GoldenTrace, ChaosTrialsMatchRecordedDigest)
{
    for (std::size_t threads : {1u, 2u, 4u})
        EXPECT_EQ(chaosDigest(threads), kGoldenChaos)
            << "threads=" << threads;
}

TEST(GoldenTrace, ShardedChaosTrialsMatchRecordedDigestAtEveryShardCount)
{
    for (std::uint32_t shards : {1u, 2u, 4u})
        EXPECT_EQ(shardedChaosDigest(shards), kGoldenChaosSharded)
            << "shards=" << shards;
}

TEST(GoldenTrace, ByzantineTrialsMatchRecordedDigest)
{
    for (std::size_t threads : {1u, 2u, 4u})
        EXPECT_EQ(byzantineDigest(threads), kGoldenByzantine)
            << "threads=" << threads;
}

TEST(GoldenTrace, ShardedByzantineTrialsMatchRecordedDigestAtEveryShardCount)
{
    for (std::uint32_t shards : {1u, 2u, 4u})
        EXPECT_EQ(shardedByzantineDigest(shards), kGoldenByzantineSharded)
            << "shards=" << shards;
}

TEST(GoldenTrace, ThermalTrialsMatchRecordedDigest)
{
    for (std::size_t threads : {1u, 2u, 4u})
        EXPECT_EQ(thermalDigest(threads), kGoldenThermal)
            << "threads=" << threads;
}

// The introspection plane is an observer: attaching a SuperstepProfiler
// must reproduce the *same* pinned constants as the detached runs, at
// every shard count. Any drift here means wall-clock measurement leaked
// into simulation outcomes.

TEST(GoldenTrace, ProfiledShardedChaosMatchesDetachedPinAtEveryShardCount)
{
    for (std::uint32_t shards : {1u, 2u, 4u})
        EXPECT_EQ(shardedChaosDigest(shards, /*profiled=*/true),
                  kGoldenChaosSharded)
            << "shards=" << shards;
}

TEST(GoldenTrace, ProfiledShardedByzantineMatchesDetachedPinAtEveryShardCount)
{
    for (std::uint32_t shards : {1u, 2u, 4u})
        EXPECT_EQ(shardedByzantineDigest(shards, /*profiled=*/true),
                  kGoldenByzantineSharded)
            << "shards=" << shards;
}

TEST(GoldenTrace, ProfiledShardedSweepBitIdenticalAcrossThreadCounts)
{
    // Thread axis with the profiler attached: each trial is a sharded
    // chaos run (one per scenario) with its own profiler, dispatched
    // through runSweep at 1, 2 and 4 sweep threads. No pin — the
    // contract is that the three thread counts agree bit-for-bit even
    // while every worker is timing itself.
    auto sweepDigest = [](std::size_t threads) {
        sweep::SweepOptions opts;
        opts.threads = threads;
        auto trials = sweep::runSweep(
            std::size(kScenarios), sweep::streamSeed(2068, 0),
            [](std::size_t i, std::uint64_t seed) {
                return chaosTrialDigest(kScenarios[i], seed,
                                        /*observed=*/false,
                                        /*rec=*/nullptr, /*shards=*/2,
                                        /*profiled=*/true);
            },
            opts);
        Digest all;
        for (std::uint64_t d : trials)
            all.u64(d);
        return all.value();
    };
    const std::uint64_t base = sweepDigest(1);
    for (std::size_t threads : {2u, 4u})
        EXPECT_EQ(sweepDigest(threads), base) << "threads=" << threads;
}

TEST(GoldenTrace, ThermalGoldenScenarioActuallyThrottles)
{
    // Non-vacuity guard on the pins above: the first pinned trial must
    // really heat into the trip band and cycle the limiter ladder —
    // otherwise the thermal constant would silently degenerate into a
    // plain SoC-run pin. The seed reproduces runSweep's derivation for
    // trial 0 of thermalDigest().
    ThermalProbe probe;
    thermalTrialDigest(sweep::streamSeed(sweep::streamSeed(2054, 0), 0),
                       kEnforcingPhysics, &probe);
    EXPECT_GT(probe.engages, 0u);
    EXPECT_GT(probe.releases, 0u);
    EXPECT_GT(probe.peakTempC, 52.0);
}

TEST(GoldenTrace, DetachedPhysicsMatchesUnenforcedAttachedDigests)
{
    // Compiled-in-but-detached must cost nothing observable, and an
    // attached plane in observer mode (enforce = false) integrates its
    // models without perturbing the run: both digests are bit-equal.
    for (std::uint64_t seed : {3u, 11u})
        EXPECT_EQ(thermalTrialDigest(seed, kDetachedPhysics),
                  thermalTrialDigest(seed, kObserverPhysics))
            << "seed=" << seed;
}

TEST(GoldenTrace, SampledFig01TrialMatchesUnsampledResult)
{
    // Metrics sampling reads ledger state at cadence boundaries inside
    // the engine's run loop; the trial outcome must be bit-identical.
    EXPECT_EQ(convergeUs(6, 42, /*observed=*/true),
              convergeUs(6, 42, /*observed=*/false));
}

TEST(GoldenTrace, ObservedChaosTrialsMatchUnobservedDigests)
{
    // Full observability on (tracer spans, periodic metric sampler
    // events): sampler events interleave at Priority::Stats but never
    // reorder existing event pairs and touch no RNG, so each trial
    // digest is unchanged.
    std::uint64_t scenarioIdx = 0;
    for (const GoldenScenario &sc : kScenarios) {
        const std::uint64_t seed = sweep::streamSeed(2026, scenarioIdx++);
        EXPECT_EQ(chaosTrialDigest(sc, seed, /*observed=*/true),
                  chaosTrialDigest(sc, seed, /*observed=*/false))
            << "scenario " << scenarioIdx - 1;
    }
}

TEST(GoldenTrace, RecordedChaosTrialsMatchUnrecordedDigests)
{
    // The flight recorder journals from hook points that read event
    // arguments already computed; with recording ON every trial digest
    // must stay pinned to the recording-OFF value, and the journal
    // itself must be non-trivial (the pin is not vacuous).
    std::uint64_t scenarioIdx = 0;
    for (const GoldenScenario &sc : kScenarios) {
        const std::uint64_t seed =
            sweep::streamSeed(2026, scenarioIdx++);
        record::FlightRecorder rec;
        EXPECT_EQ(chaosTrialDigest(sc, seed, /*observed=*/false, &rec),
                  chaosTrialDigest(sc, seed, /*observed=*/false))
            << "scenario " << scenarioIdx - 1;
        EXPECT_GT(rec.size(), 0u) << "scenario " << scenarioIdx - 1;
    }
}

/** Recompute every digest and rewrite golden_digests.inc in place. */
int
regenDigests()
{
    const std::uint64_t fig01 = fig01Digest(1);
    const std::uint64_t chaos = chaosDigest(1);
    const std::uint64_t sharded = shardedChaosDigest(1);
    const std::uint64_t byz = byzantineDigest(1);
    const std::uint64_t byzSharded = shardedByzantineDigest(1);
    const std::uint64_t thermal = thermalDigest(1);
    const std::uint64_t meshSim = meshSimDigest();
    const char *path = BLITZ_GOLDEN_DIGESTS_PATH;
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(
        f,
        "// Pinned golden digests. Regenerate with `golden_trace_test "
        "--regen`\n"
        "// (rewrites this file in the source tree); commit the change "
        "together\n"
        "// with the intended-behavior change that moved them.\n"
        "constexpr std::uint64_t kGoldenFig01 = %lluull;\n"
        "constexpr std::uint64_t kGoldenChaos = %lluull;\n"
        "constexpr std::uint64_t kGoldenChaosSharded = %lluull;\n"
        "constexpr std::uint64_t kGoldenByzantine = %lluull;\n"
        "constexpr std::uint64_t kGoldenByzantineSharded = %lluull;\n"
        "constexpr std::uint64_t kGoldenThermal = %lluull;\n"
        "constexpr std::uint64_t kGoldenMeshSim = %lluull;\n",
        static_cast<unsigned long long>(fig01),
        static_cast<unsigned long long>(chaos),
        static_cast<unsigned long long>(sharded),
        static_cast<unsigned long long>(byz),
        static_cast<unsigned long long>(byzSharded),
        static_cast<unsigned long long>(thermal),
        static_cast<unsigned long long>(meshSim));
    std::fclose(f);
    std::printf("fig01: %llu (was %llu)\nchaos: %llu (was %llu)\n"
                "chaos-sharded: %llu (was %llu)\n"
                "byzantine: %llu (was %llu)\n"
                "byzantine-sharded: %llu (was %llu)\n"
                "thermal: %llu (was %llu)\n"
                "mesh-sim: %llu (was %llu)\nwrote %s\n",
                static_cast<unsigned long long>(fig01),
                static_cast<unsigned long long>(kGoldenFig01),
                static_cast<unsigned long long>(chaos),
                static_cast<unsigned long long>(kGoldenChaos),
                static_cast<unsigned long long>(sharded),
                static_cast<unsigned long long>(kGoldenChaosSharded),
                static_cast<unsigned long long>(byz),
                static_cast<unsigned long long>(kGoldenByzantine),
                static_cast<unsigned long long>(byzSharded),
                static_cast<unsigned long long>(kGoldenByzantineSharded),
                static_cast<unsigned long long>(thermal),
                static_cast<unsigned long long>(kGoldenThermal),
                static_cast<unsigned long long>(meshSim),
                static_cast<unsigned long long>(kGoldenMeshSim),
                path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--regen") == 0)
            return regenDigests();
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
