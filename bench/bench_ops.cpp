/**
 * @file
 * Micro-benchmarks (google-benchmark) of the core operations: the
 * pairwise exchange arithmetic, the 5-tile group split, a full
 * behavioral convergence run, and the routed-NoC packet path. These
 * bound the simulator's own cost, not the modeled hardware's.
 *
 * Invoked with --perf-json[=path] the binary instead runs the
 * perf-regression harness: steady-state event-kernel and NoC
 * throughput for 4x4 and 6x6 configs, written as machine-readable
 * BENCH_ops.json next to a human-readable table. The `bench-perf`
 * CMake target wires this up; kBaseline below holds the numbers
 * recorded at the PR 3 seed so every future run reports its speedup
 * against the same reference.
 *
 * --perf-check[=path] additionally gates the run: before overwriting
 * the JSON, the fresh measurement is compared against the recorded
 * file and the process exits nonzero if any config's throughput fell
 * more than 3% — the observability plane's hook sites are compiled
 * into these paths with tracing disabled, so this is the "tracing off
 * is free" acceptance check. The same mode runs a paired in-process
 * gate for recording ON: the noc_steady_6x6 config is re-measured
 * with a ring-mode flight recorder attached, and must stay within 10%
 * of its unrecorded twin from the same invocation (self-referencing,
 * so the gate needs no new key in the recorded JSON). The bound is a
 * ratio of a fixed absolute cost (~4-5 ns/packet of journaling) to an
 * ever-faster baseline, so it was widened from 5% when the mega-mesh
 * hot-path work cut the unrecorded packet cost roughly in half — the
 * absolute overhead shrank in the same change.
 *
 * A second paired gate covers the introspection plane: the
 * noc_shard_16x16_s4 config is re-measured with a SuperstepProfiler
 * attached (per-phase timing + mailbox matrix on every superstep) and
 * must stay within 3% of its detached twin from the same invocation.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "coin/engine.hpp"
#include "coin/exchange.hpp"
#include "noc/network.hpp"
#include "power/rail.hpp"
#include "power/thermal.hpp"
#include "record/recorder.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "soc/throttler.hpp"
#include "trace/prof.hpp"

using namespace blitz;

namespace {

void
BM_PairwiseDelta(benchmark::State &state)
{
    sim::Rng rng(1);
    std::vector<coin::TileCoins> tiles(1024);
    for (auto &t : tiles)
        t = coin::TileCoins{rng.range(0, 63), rng.range(0, 63)};
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(coin::pairwiseDelta(
            tiles[i % 1024], tiles[(i + 7) % 1024]));
        ++i;
    }
}
BENCHMARK(BM_PairwiseDelta);

void
BM_GroupSplit(benchmark::State &state)
{
    sim::Rng rng(2);
    std::vector<coin::TileCoins> group(5);
    for (auto &t : group)
        t = coin::TileCoins{rng.range(0, 63), rng.range(1, 63)};
    std::vector<coin::Coins> split(group.size());
    for (auto _ : state) {
        coin::groupSplit(group, {}, split);
        benchmark::DoNotOptimize(split.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GroupSplit);

void
BM_MeshConvergence(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    coin::EngineConfig cfg;
    cfg.wrap = true;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        coin::MeshSim sim(noc::Topology::square(d), cfg, seed++);
        for (std::size_t i = 0; i < sim.ledger().size(); ++i)
            sim.setMax(i, 16);
        sim.randomizeHas(static_cast<coin::Coins>(8 * d * d));
        auto r = sim.runUntilConverged(1.5, 10'000'000);
        benchmark::DoNotOptimize(r.time);
    }
    state.SetLabel("tiles=" + std::to_string(d * d));
}
BENCHMARK(BM_MeshConvergence)->Arg(4)->Arg(10)->Arg(20);

void
BM_NocPacketDelivery(benchmark::State &state)
{
    sim::EventQueue eq;
    noc::Network net(eq, noc::Topology(8, 8, false));
    std::uint64_t delivered = 0;
    for (noc::NodeId id = 0; id < 64; ++id) {
        net.setHandler(id, [&delivered](const noc::Packet &) {
            ++delivered;
        });
    }
    sim::Rng rng(3);
    for (auto _ : state) {
        noc::Packet p;
        p.src = static_cast<noc::NodeId>(rng.below(64));
        p.dst = static_cast<noc::NodeId>(rng.below(64));
        net.send(p);
        eq.runUntil();
    }
    benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_NocPacketDelivery);

// ------------------------------------------------ perf-regression harness

namespace perf {

struct Result
{
    const char *name;
    std::uint64_t events = 0;
    std::uint64_t packets = 0;
    double seconds = 0.0;

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }

    double
    packetsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(packets) / seconds
                             : 0.0;
    }

    double
    nsPerEvent() const
    {
        return events ? seconds * 1e9 / static_cast<double>(events)
                      : 0.0;
    }
};

/**
 * Reference throughput recorded at the PR 3 seed kernel
 * (std::function entries in a binary priority_queue, one lambda per
 * NoC hop), RelWithDebInfo, this repo's CI container. Kernel configs
 * compare events/sec; NoC configs compare packets/sec, since the
 * flattened fast path deliberately spends fewer events per packet.
 */
struct Baseline
{
    const char *name;
    double eventsPerSec;
    double packetsPerSec;
};

constexpr Baseline kBaseline[] = {
    {"event_kernel_4x4", 7.80e6, 0.0},
    {"event_kernel_6x6", 6.83e6, 0.0},
    {"noc_steady_4x4", 5.69e6, 1.26e6},
    {"noc_steady_6x6", 4.86e6, 0.83e6},
};

const Baseline *
baselineFor(const char *name)
{
    for (const Baseline &b : kBaseline) {
        if (std::strcmp(b.name, name) == 0)
            return &b;
    }
    return nullptr;
}

/**
 * Self-rescheduling periodic timer — the dominant event shape of the
 * SoC model (controller ticks, stat sampling). A fresh copy of the
 * functor is captured per event, so the kernel's per-event storage
 * cost is on the measured path.
 */
struct TimerEvent
{
    sim::EventQueue *eq;
    std::uint64_t *fired;
    sim::Tick period;

    void
    operator()() const
    {
        ++*fired;
        eq->scheduleIn(period, *this);
    }
};

/**
 * Periodic traffic source: every @p period ticks, send one packet to
 * a xorshift32-chosen destination. Deterministic and self-contained,
 * so the measurement is identical run to run.
 */
struct SenderEvent
{
    noc::Network *net;
    sim::EventQueue *eq;
    noc::NodeId src;
    std::uint32_t rngState;
    std::uint32_t nodes;
    sim::Tick period;

    void
    operator()() const
    {
        std::uint32_t x = rngState;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        noc::Packet p;
        p.src = src;
        p.dst = static_cast<noc::NodeId>(x % nodes);
        net->send(p);
        SenderEvent next = *this;
        next.rngState = x;
        eq->scheduleIn(period, next);
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Steady-state event-kernel throughput on a d*d timer population.
 * Mega-mesh configs pass a larger @p periodBase so a 10^6-timer
 * population settles at a realistic events-per-tick density instead
 * of multiplying the warmup cost by the node count.
 */
Result
perfEventKernel(const char *name, int d, std::uint64_t targetEvents,
                sim::Tick periodBase = 2, sim::Tick periodSpread = 7,
                sim::Tick warmTicks = 4096)
{
    sim::EventQueue eq;
    const std::int64_t n = static_cast<std::int64_t>(d) * d;
    std::uint64_t fired = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        const auto period = static_cast<sim::Tick>(
            periodBase + (static_cast<sim::Tick>(i) % periodSpread));
        eq.schedule(1 + (static_cast<sim::Tick>(i) % period),
                    TimerEvent{&eq, &fired, period});
    }
    eq.runUntil(warmTicks); // warm up: reach steady state

    Result best{name};
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t executed = 0;
        const auto t0 = std::chrono::steady_clock::now();
        while (executed < targetEvents)
            executed += eq.runUntil(eq.now() + 8192);
        const double secs = secondsSince(t0);
        if (best.seconds == 0.0 || secs / static_cast<double>(executed) <
                                       best.seconds /
                                           static_cast<double>(best.events)) {
            best.events = executed;
            best.seconds = secs;
        }
    }
    return best;
}

/**
 * Steady-state NoC throughput: every node injects one packet every 32
 * ticks to a pseudo-random destination, no fault hook installed — the
 * fault-free path the acceptance criterion targets.
 */
Result
perfNocSteady(const char *name, int d, std::uint64_t targetPackets,
              record::FlightRecorder *rec = nullptr,
              sim::Tick period = 32, noc::NodeId senderStride = 1,
              sim::Tick warmTicks = 4096)
{
    sim::EventQueue eq;
    noc::Network net(eq, noc::Topology(d, d, false));
    net.setRecorder(rec);
    const auto n = static_cast<std::uint32_t>(d * d);
    std::uint64_t delivered = 0;
    for (noc::NodeId id = 0; id < n; ++id) {
        net.setHandler(id, [&delivered](const noc::Packet &) {
            ++delivered;
        });
    }
    // Mega-mesh configs thin the sender population (stride) and slow
    // the cadence (period): per-packet hop cost is what's measured,
    // and 10^5 sources at a 32-tick period would only multiply warmup.
    for (noc::NodeId id = 0; id < n; id += senderStride) {
        eq.schedule(
            1 + (id % 29),
            SenderEvent{&net, &eq, id, 0x9e3779b9u + id, n, period});
    }
    eq.runUntil(warmTicks);

    Result best{name};
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t executed = 0;
        const std::uint64_t packets0 = delivered;
        const auto t0 = std::chrono::steady_clock::now();
        while (delivered - packets0 < targetPackets)
            executed += eq.runUntil(eq.now() + 8192);
        const double secs = secondsSince(t0);
        const std::uint64_t packets = delivered - packets0;
        if (best.seconds == 0.0 ||
            secs / static_cast<double>(packets) <
                best.seconds / static_cast<double>(best.packets)) {
            best.events = executed;
            best.packets = packets;
            best.seconds = secs;
        }
    }
    return best;
}

/**
 * Large-mesh NoC steady state under the BSP-sharded kernel: same
 * traffic shape as perfNocSteady, but the mesh is partitioned into
 * @p shards column bands run bulk-synchronously. Senders are pinned
 * to their node's shard; deliveries execute at the destination's
 * locus, so the per-node sink counters have one writing shard each.
 * With @p profiled the superstep profiler rides along, charging every
 * execute/drain/barrier phase and the mailbox matrix — the attached
 * side of the profiler_overhead gate.
 */
Result
perfNocSharded(const char *name, int d, std::uint32_t shards,
               std::uint64_t targetPackets, bool profiled = false)
{
    sim::EventQueue eq;
    sim::ShardGroup group(
        eq, shards,
        sim::columnBands(static_cast<std::uint32_t>(d),
                         static_cast<std::uint32_t>(d), shards));
    trace::SuperstepProfiler prof;
    if (profiled)
        prof.attach(group);
    noc::Network net(eq, noc::Topology(d, d, false));
    net.enableSharding(group);
    const auto n = static_cast<std::uint32_t>(d * d);
    std::vector<std::uint64_t> sunk(n, 0);
    std::uint64_t *sp = sunk.data();
    for (noc::NodeId id = 0; id < n; ++id)
        net.setHandler(id,
                       [sp, id](const noc::Packet &) { ++sp[id]; });
    for (noc::NodeId id = 0; id < n; ++id) {
        eq.scheduleAtNode(
            id, 1 + (id % 29),
            SenderEvent{&net, &eq, id, 0x9e3779b9u + id, n, 32});
    }
    eq.runUntil(4096);

    Result best{name};
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t executed = 0;
        const std::uint64_t packets0 = net.packetsDelivered();
        const auto t0 = std::chrono::steady_clock::now();
        while (net.packetsDelivered() - packets0 < targetPackets)
            executed += eq.runUntil(eq.now() + 8192);
        const double secs = secondsSince(t0);
        const std::uint64_t packets =
            net.packetsDelivered() - packets0;
        if (best.seconds == 0.0 ||
            secs / static_cast<double>(packets) <
                best.seconds / static_cast<double>(best.packets)) {
            best.events = executed;
            best.packets = packets;
            best.seconds = secs;
        }
    }
    return best;
}

/**
 * Steady-state physics-plane step cost: RC integration with a chain
 * of couplings, rail-current reconstruction with the hysteresis
 * latch, and arbiter engage/release churn over a 36-tile population —
 * the per-sample work the plane adds inside the event kernel. The
 * square-wave drive cycles both the thermal trip band and the rail
 * latch so the mutation paths stay on the measured path.
 */
Result
perfPhysicsStep(const char *name, std::uint64_t targetSteps)
{
    constexpr std::size_t kTiles = 36;
    power::ThermalConfig tc;
    tc.node.cJPerC = 1e-6;
    power::ThermalModel thermal(kTiles, tc);
    for (std::uint32_t i = 0; i + 1 < kTiles; ++i)
        thermal.addCoupling(i, i + 1, 1e-3);
    power::RailSet rails(kTiles);
    power::RailConfig rc;
    rc.limitMa = 900.0;
    rails.addRail(rc);
    for (std::size_t t = 0; t < kTiles; ++t)
        rails.assignTile(0, t);
    soc::ThrottleArbiter arb(kTiles);

    double powerMw[kTiles];
    std::uint64_t stepNo = 0;
    auto one = [&] {
        const bool hot = (stepNo / 256) % 2 == 0;
        for (std::size_t t = 0; t < kTiles; ++t)
            powerMw[t] = hot ? 40.0 : 5.0;
        thermal.step(500.0, powerMw);
        rails.update(powerMw);
        for (std::size_t t = 0; t < kTiles; ++t) {
            if (thermal.temperatureC(t) >= 48.0)
                arb.set(t, soc::ThrottleSource::Thermal, 400.0);
            else if (thermal.temperatureC(t) <= 47.5)
                arb.clear(t, soc::ThrottleSource::Thermal);
        }
        if (rails.edge(0) == power::RailEdge::Engaged) {
            for (std::size_t t = 0; t < kTiles; ++t)
                arb.set(t, soc::ThrottleSource::Rail, 300.0);
        } else if (rails.edge(0) == power::RailEdge::Released) {
            for (std::size_t t = 0; t < kTiles; ++t)
                arb.clear(t, soc::ThrottleSource::Rail);
        }
        ++stepNo;
    };
    for (int i = 0; i < 4096; ++i)
        one();

    Result best{name};
    for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t steps0 = stepNo;
        const auto t0 = std::chrono::steady_clock::now();
        while (stepNo - steps0 < targetSteps)
            one();
        const double secs = secondsSince(t0);
        const std::uint64_t steps = stepNo - steps0;
        if (best.seconds == 0.0 ||
            secs / static_cast<double>(steps) <
                best.seconds / static_cast<double>(best.events)) {
            best.events = steps;
            best.seconds = secs;
        }
    }
    return best;
}

/**
 * Recorded throughput for @p name from a previous BENCH_ops.json:
 * events_per_sec for kernel configs, packets_per_sec for NoC configs.
 * Returns 0 when the file or the config is missing (nothing to gate
 * against). The parser only needs to read the format written below.
 */
double
recordedThroughput(const char *jsonPath, const char *name, bool noc)
{
    std::FILE *f = std::fopen(jsonPath, "r");
    if (!f)
        return 0.0;
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    const std::string anchor = "\"name\": \"" + std::string(name) + "\"";
    const std::size_t at = text.find(anchor);
    if (at == std::string::npos)
        return 0.0;
    const char *key =
        noc ? "\"packets_per_sec\": " : "\"events_per_sec\": ";
    const std::size_t k = text.find(key, at);
    // Stay within this config's object.
    const std::size_t end = text.find('}', at);
    if (k == std::string::npos || (end != std::string::npos && k > end))
        return 0.0;
    return std::atof(text.c_str() + k + std::strlen(key));
}

int
perfMain(const char *jsonPath, const char *checkPath)
{
    // Ring mode bounds memory during the long measurement while still
    // exercising the real per-delivery journaling path.
    record::RecorderConfig ringCfg;
    ringCfg.chunkRecords = 1 << 14;
    ringCfg.maxChunks = 8;
    record::FlightRecorder ringRec(ringCfg);

    const Result results[] = {
        perfEventKernel("event_kernel_4x4", 4, 4'000'000),
        perfEventKernel("event_kernel_6x6", 6, 4'000'000),
        perfNocSteady("noc_steady_4x4", 4, 200'000),
        perfNocSteady("noc_steady_6x6", 6, 200'000),
        perfNocSteady("noc_steady_6x6_recorded", 6, 200'000, &ringRec),
        // Large-mesh shard scaling: the same 16x16 workload at 1 and 4
        // shards. s1 takes the single-active-shard inline path — fully
        // deterministic and single-threaded, so it IS gated like the
        // unsharded configs. s4 runs real worker threads, so its
        // wall-clock (and the s4-vs-s1 ratio printed below) is only
        // meaningful on a machine with >= 4 idle cores — recorded for
        // inspection, never gated.
        perfNocSharded("noc_shard_16x16_s1", 16, 1, 200'000),
        perfNocSharded("noc_shard_16x16_s4", 16, 4, 200'000),
        // Same workload with the superstep profiler attached; recorded
        // for inspection and compared against its detached twin by the
        // paired profiler_overhead gate below, never gated on its own
        // wall-clock (worker threads contend with the host).
        perfNocSharded("noc_shard_16x16_s4_prof", 16, 4, 200'000,
                       true),
        // Mega-mesh hot path (ISSUE 8): per-packet hop cost at 10^4
        // and 10^5 nodes, and raw kernel throughput at 10^6 timers.
        // Slower cadences / thinned senders keep the wall-clock
        // bounded; the measured quantity is still the steady-state
        // per-event cost of the same hot path the 6x6 configs hit.
        perfNocSteady("noc_steady_100x100", 100, 100'000, nullptr,
                      512, 1, 2048),
        perfNocSteady("noc_steady_316x316", 316, 100'000, nullptr,
                      512, 16, 2048),
        perfEventKernel("event_kernel_1000x1000", 1000, 4'000'000,
                        512, 257, 1024),
        // Physics plane (ISSUE 9): per-step cost of the thermal
        // integrator + rail latch + throttle arbiter at SoC scale.
        // "Events" are plane steps; gated on events_per_sec.
        perfPhysicsStep("physics_steady_36", 2'000'000),
    };

    double shardS1 = 0.0, shardS4 = 0.0, shardS4Prof = 0.0;
    for (const Result &r : results) {
        if (std::strcmp(r.name, "noc_shard_16x16_s1") == 0)
            shardS1 = r.packetsPerSec();
        if (std::strcmp(r.name, "noc_shard_16x16_s4") == 0)
            shardS4 = r.packetsPerSec();
        if (std::strcmp(r.name, "noc_shard_16x16_s4_prof") == 0)
            shardS4Prof = r.packetsPerSec();
    }
    if (shardS1 > 0.0) {
        std::printf("shard-scaling     noc_shard_16x16 s4/s1 = %.2fx "
                    "(threads contend with the host; see comment)\n",
                    shardS4 / shardS1);
    }

    // Gate before overwriting: each config's throughput must stay
    // within 3% of the recorded run. Failures are reported by NAME so
    // a CI log (or a human) can see which row regressed without
    // diffing the JSON.
    std::string regressed;
    auto noteRegression = [&regressed](const char *name) {
        if (!regressed.empty())
            regressed += ", ";
        regressed += name;
    };
    if (checkPath) {
        // Paired overhead gate: recording ON vs OFF, both measured
        // this invocation, so the bound holds on any machine without
        // a recorded baseline for the new config.
        const double off = results[3].packetsPerSec();
        const double on = results[4].packetsPerSec();
        if (off > 0.0) {
            const double ratio = on / off;
            const bool bad = ratio < 0.90;
            std::printf("perf-check %-18s %12.3e vs %12.3e  %+.1f%%%s\n",
                        "recording_overhead", on, off,
                        (ratio - 1.0) * 100.0,
                        bad ? "  REGRESSION (>10% overhead)" : "");
            if (bad)
                noteRegression("recording_overhead");
        }
        // Paired profiler gate: the superstep profiler charges clocks
        // and bumps counters on every superstep, and the introspection
        // plane's budget is 3% on the sharded hot path. Attached and
        // detached twins come from the same invocation, so the bound
        // holds on any machine without a recorded baseline.
        if (shardS4 > 0.0) {
            const double ratio = shardS4Prof / shardS4;
            const bool bad = ratio < 0.97;
            std::printf("perf-check %-18s %12.3e vs %12.3e  %+.1f%%%s\n",
                        "profiler_overhead", shardS4Prof, shardS4,
                        (ratio - 1.0) * 100.0,
                        bad ? "  REGRESSION (>3% overhead)" : "");
            if (bad)
                noteRegression("profiler_overhead");
        }
        for (const Result &r : results) {
            // Multi-threaded shard entries (s2/s4/...) measure
            // thread-level parallelism; their wall-clock depends on
            // host core count and load, so they are recorded for
            // inspection but never gated. The single-shard row runs
            // inline on one thread and is gated like the rest.
            if (std::strncmp(r.name, "noc_shard_", 10) == 0 &&
                std::strcmp(r.name + std::strlen(r.name) - 3, "_s1") !=
                    0)
                continue;
            const bool noc = r.packets > 0;
            const double recorded =
                recordedThroughput(checkPath, r.name, noc);
            if (recorded <= 0.0) {
                std::printf("perf-check %-18s no recorded baseline\n",
                            r.name);
                continue;
            }
            const double cur =
                noc ? r.packetsPerSec() : r.eventsPerSec();
            const double ratio = cur / recorded;
            // The single-shard inline path shows ~5% run-to-run
            // variance (drain-time run-merging is sensitive to bucket
            // shape), so its gate is wider than the 3% default to
            // stay meaningful without flapping.
            const double floor =
                std::strncmp(r.name, "noc_shard_", 10) == 0 ? 0.92
                                                            : 0.97;
            const bool bad = ratio < floor;
            std::printf("perf-check %-18s %12.3e vs %12.3e  %+.1f%%%s\n",
                        r.name, cur, recorded, (ratio - 1.0) * 100.0,
                        bad ? "  REGRESSION" : "");
            if (bad)
                noteRegression(r.name);
        }
    }

    std::printf("%-18s %12s %10s %12s %9s\n", "config", "events/sec",
                "ns/event", "packets/sec", "speedup");
    std::FILE *js = nullptr;
    if (jsonPath) {
        js = std::fopen(jsonPath, "w");
        if (!js) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         jsonPath);
            return 1;
        }
        std::fprintf(js, "{\n  \"bench\": \"bench_ops\",\n"
                         "  \"configs\": [\n");
    }
    for (std::size_t i = 0; i < std::size(results); ++i) {
        const Result &r = results[i];
        const Baseline *b = baselineFor(r.name);
        const bool noc = r.packets > 0;
        // Kernel configs compare events/sec; NoC configs compare
        // packets/sec (the flattened path spends fewer events/packet).
        const double base =
            b ? (noc ? b->packetsPerSec : b->eventsPerSec) : 0.0;
        const double cur = noc ? r.packetsPerSec() : r.eventsPerSec();
        const double speedup = base > 0.0 ? cur / base : 0.0;

        std::printf("%-18s %12.3e %10.1f %12.3e %8.2fx\n", r.name,
                    r.eventsPerSec(), r.nsPerEvent(), r.packetsPerSec(),
                    speedup);
        if (!js)
            continue;
        std::fprintf(
            js,
            "    {\"name\": \"%s\", \"events\": %llu, "
            "\"packets\": %llu, \"seconds\": %.6f,\n"
            "     \"events_per_sec\": %.1f, \"ns_per_event\": %.3f, "
            "\"packets_per_sec\": %.1f,\n"
            "     \"baseline_events_per_sec\": %.1f, "
            "\"baseline_packets_per_sec\": %.1f, "
            "\"speedup_vs_baseline\": %.3f}%s\n",
            r.name, static_cast<unsigned long long>(r.events),
            static_cast<unsigned long long>(r.packets), r.seconds,
            r.eventsPerSec(), r.nsPerEvent(), r.packetsPerSec(),
            b ? b->eventsPerSec : 0.0, b ? b->packetsPerSec : 0.0,
            speedup, i + 1 < std::size(results) ? "," : "");
    }
    if (js) {
        std::fprintf(js, "  ]\n}\n");
        std::fclose(js);
        std::printf("\nwrote %s\n", jsonPath);
    }
    if (!regressed.empty()) {
        std::fprintf(stderr,
                     "perf-check: regressed more than 3%% vs %s: %s\n",
                     checkPath, regressed.c_str());
        return 1;
    }
    return 0;
}

} // namespace perf

} // namespace

int
main(int argc, char **argv)
{
    const char *jsonPath = nullptr;
    const char *checkPath = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--perf-check", 12) == 0) {
            checkPath = argv[i][12] == '=' ? argv[i] + 13
                                           : "BENCH_ops.json";
        } else if (std::strncmp(argv[i], "--perf-json", 11) == 0) {
            jsonPath = argv[i][11] == '=' ? argv[i] + 12
                                          : "BENCH_ops.json";
        }
    }
    // Check-only runs (no --perf-json) leave the recorded file
    // untouched, so a failing gate can be re-run against the same
    // baseline.
    if (jsonPath || checkPath)
        return perf::perfMain(jsonPath, checkPath);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
