/**
 * @file
 * Steady-state allocation audit for the event kernel and the NoC.
 *
 * The fast-path rewrite's zero-allocation claim, made checkable: this
 * binary replaces the global allocation functions with counting
 * wrappers, warms a workload until every pool (event slab, heap
 * array, packet-event free list) has reached its high-water mark, and
 * then asserts that continuing the same workload performs *zero*
 * further heap allocations.
 *
 * Every replaceable variant is intercepted — including the
 * std::align_val_t forms, which the event slab uses for its node
 * chunks — so a regression cannot hide behind an aligned or nothrow
 * overload.
 *
 * The wrappers also count requested bytes, which backs the
 * memory-scaling gate: building a cluster must cost O(N) heap, not
 * the O(N^2) of per-tile partner tables.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "noc/network.hpp"
#include "power/rail.hpp"
#include "power/thermal.hpp"
#include "record/recorder.hpp"
#include "sim/event_queue.hpp"
#include "soc/throttler.hpp"
#include "trace/flush_guard.hpp"

namespace {

std::atomic<std::uint64_t> gAllocCount{0};
std::atomic<std::uint64_t> gAllocBytes{0};

void *
countedAlloc(std::size_t bytes)
{
    ++gAllocCount;
    gAllocBytes += bytes;
    void *p = std::malloc(bytes ? bytes : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t bytes, std::size_t align)
{
    ++gAllocCount;
    gAllocBytes += bytes;
    // C11 aligned_alloc wants the size rounded to the alignment.
    const std::size_t padded = (bytes + align - 1) / align * align;
    void *p = std::aligned_alloc(align, padded ? padded : align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++gAllocCount;
    gAllocBytes += n;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++gAllocCount;
    gAllocBytes += n;
    return std::malloc(n ? n : 1);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace blitz;

/** Self-rescheduling timer: the kernel's steady-state inner loop. */
struct Timer
{
    sim::EventQueue *eq;
    sim::Tick period;
    void operator()() const { eq->scheduleIn(period, *this); }
};

TEST(AllocCount, EventKernelSteadyStateIsAllocationFree)
{
    sim::EventQueue eq;
    for (int i = 0; i < 96; ++i)
        eq.schedule(1 + i % 5,
                    Timer{&eq, static_cast<sim::Tick>(2 + i % 7)});
    // Warmup: slab chunks, heap array, and free lists reach their
    // high-water marks.
    eq.runUntil(4096);

    const std::uint64_t before = gAllocCount.load();
    eq.runUntil(65536);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state event scheduling allocated";
}

TEST(AllocCount, SparseWheelCostsUnderOneKiBPerOccupiedTick)
{
    // One event on each of 4,000 distinct ticks inside the wheel
    // window: every occupied tick draws a bucket chunk from the pool
    // and every event a slab node. All the queue allocates for them,
    // the queue itself included, must stay under 1 KiB a tick.
    constexpr std::uint64_t kTicks = 4000;
    const std::uint64_t before = gAllocBytes.load();
    sim::EventQueue eq;
    std::uint64_t ran = 0;
    for (sim::Tick t = 1; t <= kTicks; ++t)
        eq.schedule(t, [&ran] { ++ran; });
    const std::uint64_t bytes = gAllocBytes.load() - before;
    EXPECT_LT(bytes, kTicks * 1024)
        << bytes / kTicks << " B per occupied tick";
    eq.runUntil(kTicks);
    EXPECT_EQ(ran, kTicks);
}

/**
 * Timer churn, three timers per node: `beat` re-arms itself every few
 * ticks (wheel), pushes `deadline` another 5000 ticks out (removed
 * from and re-inserted into the far-heap, never firing) and toggles
 * `blip` between armed and disarmed (an in-window removal).
 */
struct TimerChurn
{
    struct Node
    {
        std::unique_ptr<sim::Timer> beat, deadline, blip;
        std::uint64_t beats = 0;
        std::uint64_t blips = 0;
    };

    TimerChurn(sim::EventQueue &eq, std::uint32_t count) : nodes(count)
    {
        for (std::uint32_t n = 0; n < count; ++n) {
            Node &s = this->nodes[n];
            s.beat = std::make_unique<sim::Timer>(
                eq, [this, n] { beat(n); });
            s.deadline = std::make_unique<sim::Timer>(eq, [] {});
            s.blip = std::make_unique<sim::Timer>(
                eq, [this, n] { ++this->nodes[n].blips; });
        }
    }

    void
    beat(std::uint32_t n)
    {
        Node &s = nodes[n];
        ++s.beats;
        s.beat->armIn(3 + n % 7);
        s.deadline->armIn(5000 + n);
        if (s.beats % 3 == 0)
            s.blip->disarm();
        else
            s.blip->armIn(2);
    }

    std::uint64_t
    total(std::uint64_t Node::*field) const
    {
        std::uint64_t sum = 0;
        for (const Node &s : nodes)
            sum += s.*field;
        return sum;
    }

    std::vector<Node> nodes;
};

TEST(AllocCount, TimerRearmSteadyStateIsAllocationFree)
{
    // Arm, re-arm and disarm reuse the timer's one queue entry and its
    // stored callback: once the wheel and far-heap reach their marks,
    // the queue allocates nothing.
    sim::EventQueue eq;
    TimerChurn churn(eq, 36);
    for (std::uint32_t n = 0; n < 36; ++n)
        churn.nodes[n].beat->arm(1 + n);
    eq.runUntil(16384);
    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t beats = churn.total(&TimerChurn::Node::beats);
    eq.runUntil(131072);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state timer churn allocated";
    EXPECT_GT(churn.total(&TimerChurn::Node::beats) - beats, 500'000u);
    EXPECT_GT(churn.total(&TimerChurn::Node::blips), 0u);
}

/** Self-rescheduling sender: sustained cross-mesh traffic. */
struct Sender
{
    noc::Network *net;
    sim::EventQueue *eq;
    std::uint32_t state;
    noc::NodeId src;

    void
    operator()()
    {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        noc::Packet p;
        p.src = src;
        p.dst = static_cast<noc::NodeId>(
            state % net->topology().size());
        p.type = noc::MsgType::Generic;
        net->send(p);
        eq->scheduleIn(32, *this);
    }
};

TEST(AllocCount, NocSteadyStateIsAllocationFree)
{
    sim::EventQueue eq;
    noc::Topology topo(6, 6, false);
    noc::Network net(eq, topo);
    std::uint64_t sunk = 0;
    for (noc::NodeId id = 0; id < topo.size(); ++id)
        net.setHandler(id,
                       [&sunk](const noc::Packet &) { ++sunk; });
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        Sender s{&net, &eq, 0x9e3779b9u + id, id};
        eq.schedule(1 + id % 29, s);
    }
    eq.runUntil(16384);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t deliveredBefore = net.packetsDelivered();
    eq.runUntil(131072);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "steady-state NoC traffic allocated";
    // The audit must cover real traffic, not an idle queue.
    EXPECT_GT(net.packetsDelivered() - deliveredBefore, 50'000u);
    EXPECT_GT(sunk, 0u);
}

TEST(AllocCount, MegaMeshNocSteadyStateIsAllocationFree)
{
    // 100x100 (10,000 node) mesh: the mega-mesh hot path — batched
    // same-tick delivery, the tick-wheel bucket sort, and the packet
    // pool — must hold the zero-allocation property at four orders of
    // magnitude more nodes than the 6x6 audit above, where any
    // per-node or per-hop hidden allocation would be amplified 10^4x.
    sim::EventQueue eq;
    noc::Topology topo(100, 100, false);
    noc::Network net(eq, topo);
    std::uint64_t sunk = 0;
    for (noc::NodeId id = 0; id < topo.size(); ++id)
        net.setHandler(id,
                       [&sunk](const noc::Packet &) { ++sunk; });
    // One sender per 16th node keeps runtime modest while still
    // keeping thousands of packets in flight across long routes.
    for (noc::NodeId id = 0; id < topo.size(); id += 16) {
        Sender s{&net, &eq, 0x9e3779b9u + id, id};
        eq.schedule(1 + id % 29, s);
    }
    eq.runUntil(8192);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t deliveredBefore = net.packetsDelivered();
    eq.runUntil(32768);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "mega-mesh steady-state NoC traffic allocated";
    EXPECT_GT(net.packetsDelivered() - deliveredBefore, 100'000u);
    EXPECT_GT(sunk, 0u);
}

TEST(AllocCount, PhysicsHotPathSteadyStateIsAllocationFree)
{
    // The physics plane runs inside the event kernel at the sampler
    // cadence, so its whole per-step path — RC integration with
    // couplings, rail current reconstruction with the hysteresis
    // latch, and arbiter engage/release churn — must be heap-free
    // after construction. The square-wave power drive cycles both the
    // thermal trip band and the rail latch so the audit covers the
    // mutation paths, not just the quiescent reads.
    constexpr std::size_t kTiles = 36;
    power::ThermalConfig tc;
    tc.node.cJPerC = 1e-6; // tau = 300 us: trips cycle inside the run
    power::ThermalModel thermal(kTiles, tc);
    for (std::uint32_t i = 0; i + 1 < kTiles; ++i)
        thermal.addCoupling(i, i + 1, 1e-3);
    power::RailSet rails(kTiles);
    power::RailConfig rc;
    rc.limitMa = 900.0; // between the low- and high-phase draw
    rails.addRail(rc);
    for (std::uint32_t t = 0; t < kTiles; ++t)
        rails.assignTile(0, t);
    soc::ThrottleArbiter arb(kTiles);

    double powerMw[kTiles];
    auto drive = [&](std::uint64_t steps, std::uint64_t phase0) {
        for (std::uint64_t s = 0; s < steps; ++s) {
            // 128 us half-period: long enough to heat through the
            // 48 C trip and cool back under 47.5 C each cycle.
            const bool hot = ((phase0 + s) / 256) % 2 == 0;
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
        }
    };
    drive(4096, 0);

    const std::uint64_t before = gAllocCount.load();
    const std::uint64_t engagesBefore = arb.engages();
    drive(65536, 4096);
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "physics hot path allocated in steady state";
    // The audit must have exercised real limiter churn, not idle math.
    EXPECT_GT(arb.engages() - engagesBefore, 0u);
    EXPECT_GT(rails.engageCount(0), 0u);
    EXPECT_GT(arb.releases(), 0u);
}

TEST(AllocCount, RingRecorderSteadyStateIsAllocationFree)
{
    // In ring mode the recorder recycles whole chunks once maxChunks
    // are live, so after one full lap around the ring the append path
    // must never touch the heap again — the property that makes
    // always-on black-box recording safe inside the event kernel.
    blitz::record::RecorderConfig cfg;
    cfg.chunkRecords = 64;
    cfg.maxChunks = 4;
    blitz::record::FlightRecorder rec(cfg);

    blitz::record::Record r{};
    r.kind = blitz::record::RecordKind::Exchange;
    // Warmup: allocate every chunk and enter recycling.
    for (std::uint64_t i = 0; i < cfg.chunkRecords * cfg.maxChunks + 1;
         ++i) {
        r.tick = i;
        rec.append(r);
    }
    ASSERT_GT(rec.droppedOldest(), 0u) << "ring never wrapped";

    const std::uint64_t before = gAllocCount.load();
    for (std::uint64_t i = 0; i < 100'000; ++i) {
        r.tick = i;
        rec.append(r);
    }
    EXPECT_EQ(gAllocCount.load() - before, 0u)
        << "ring-mode recording allocated in steady state";
    // The window is between maxChunks-1 full chunks plus one record
    // and maxChunks full chunks, depending on ring position.
    EXPECT_LE(rec.size(), cfg.chunkRecords * cfg.maxChunks);
    EXPECT_GT(rec.size(), cfg.chunkRecords * (cfg.maxChunks - 1));
}

TEST(AllocCount, MeshSimRunLoopIsAllocationFree)
{
    // The behavioral engine re-keys one queued firing per tile and
    // reuses its exchange buffers (4-way group, caps, split, the lossy
    // round's survivors), so once a warm-up run has sized them neither
    // the run loop nor setMax re-programming touches the heap.
    for (coin::ExchangeMode mode :
         {coin::ExchangeMode::OneWay, coin::ExchangeMode::FourWay}) {
        coin::EngineConfig cfg;
        cfg.mode = mode;
        cfg.lossRate = 0.05;
        coin::MeshSim sim(noc::Topology::square(32), cfg, 7);
        const std::size_t n = sim.ledger().size();
        coin::Coins demand = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const coin::Coins m = 8 << (i % 3);
            sim.setMax(i, m);
            demand += m;
        }
        sim.clusterHas(demand / 2);
        sim.runFor(20'000);

        const std::uint64_t exchanges0 = sim.totalExchanges();
        const std::uint64_t before = gAllocCount.load();
        sim.runFor(20'000);
        for (std::size_t i = 0; i < n; i += 3)
            sim.setMax(i, 0);
        sim.runFor(5'000);
        EXPECT_EQ(gAllocCount.load() - before, 0u)
            << coin::exchangeModeName(mode)
            << " engine allocated in steady state";
        EXPECT_GT(sim.totalExchanges() - exchanges0, 0u);
    }
}

TEST(AllocCount, FlushAllIsAllocationFree)
{
    // flushAll runs from the fatal-signal handler; an allocation there
    // can deadlock on the allocator lock the crashed thread holds, so
    // the guard runs its registered actions without allocating.
    int runs = 0;
    auto a = trace::FlushGuard::add([&runs] { ++runs; });
    auto b = trace::FlushGuard::add([&runs] { ++runs; });
    const std::uint64_t before = gAllocCount.load();
    trace::FlushGuard::flushAll();
    EXPECT_EQ(gAllocCount.load() - before, 0u);
    EXPECT_EQ(runs, 2);
}

/** Heap bytes requested while @p build runs (frees not netted). */
template <class Build>
std::uint64_t
bytesToBuild(Build build)
{
    const std::uint64_t before = gAllocBytes.load();
    build();
    return gAllocBytes.load() - before;
}

std::uint64_t
meshSimBytes(int side)
{
    return bytesToBuild([side] {
        coin::MeshSim sim(noc::Topology(side, side, false),
                          coin::EngineConfig{}, 1);
    });
}

std::uint64_t
chaosClusterBytes(int side)
{
    return bytesToBuild([side] {
        fault::ChaosConfig cfg;
        cfg.width = side;
        cfg.height = side;
        fault::ChaosCluster cluster(cfg);
    });
}

TEST(AllocCount, SetupMemoryGrowsLinearlyWithTileCount)
{
    // 4x the tiles must cost ~4x the set-up heap. Per-tile partner
    // tables (every tile listing every non-neighbor) would make it
    // ~16x; the bound of 5 leaves room for fixed overheads only.
    const double mesh =
        static_cast<double>(meshSimBytes(64)) /
        static_cast<double>(meshSimBytes(32));
    const double chaos =
        static_cast<double>(chaosClusterBytes(64)) /
        static_cast<double>(chaosClusterBytes(32));
    EXPECT_LE(mesh, 5.0) << "MeshSim 64x64/32x32 set-up bytes";
    EXPECT_LE(chaos, 5.0) << "ChaosCluster 64x64/32x32 set-up bytes";
    // Non-vacuity: a larger mesh costs more.
    EXPECT_GT(mesh, 2.0);
    EXPECT_GT(chaos, 2.0);
}

} // namespace
