/**
 * @file
 * Unit tests of the observability plane itself: registry snapshotting,
 * series merging (the sweep-determinism contract), CSV export,
 * Chrome-trace emission, bit-identical merged metrics across sweep
 * thread counts, and the SoC's and ChaosCluster's attach-order
 * independence.
 */

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "record/recorder.hpp"
#include "soc/scenarios.hpp"
#include "soc/soc.hpp"
#include "soc/throttler.hpp"
#include "sweep/sweep.hpp"
#include "trace/attach.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace blitz;

// ------------------------------------------------ tiny JSON validator
// Recursive-descent checker: enough JSON to prove the exports parse
// (the repo deliberately has no third-party JSON dependency).

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_) {
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return false;
        }
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------------------ registry

TEST(Metrics, SampledGaugesSnapshotInOrder)
{
    trace::Registry reg;
    double level = 0.5;
    int calls = 0;
    reg.sampled("level", [&level] { return level; });
    reg.sampled("derived", [&calls] { return 10.0 * ++calls; });

    EXPECT_EQ(reg.schema(),
              (std::vector<std::string>{"level", "derived"}));
    EXPECT_THROW(reg.sampled("level", [] { return 0.0; }),
                 sim::PanicError);

    reg.sample(100);
    level = -1.25;
    reg.sample(200);
    EXPECT_THROW(reg.sampled("late", [] { return 0.0; }),
                 sim::PanicError);

    const auto &rows = reg.snapshots();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].tick, 100u);
    EXPECT_EQ(rows[0].values, (std::vector<double>{0.5, 10}));
    EXPECT_EQ(rows[1].values, (std::vector<double>{-1.25, 20}));
}

TEST(Metrics, OnSampleObserverSeesEachAppendedRow)
{
    trace::Registry reg;
    reg.sampled("c", [] { return 1.0; });
    std::vector<sim::Tick> seen;
    reg.onSample = [&](const trace::Snapshot &s) {
        seen.push_back(s.tick);
        EXPECT_EQ(s.values.size(), 1u);
    };
    reg.sample(1);
    reg.sample(2);
    EXPECT_EQ(seen, (std::vector<sim::Tick>{1, 2}));
}

TEST(Metrics, MergeSumsAlignedRowsAndTracksCoverage)
{
    auto makeSeries = [](double bias, std::size_t rows) {
        trace::Registry reg;
        double c = 0.0;
        reg.sampled("c", [&c] { return c; });
        for (std::size_t i = 0; i < rows; ++i) {
            c += bias;
            reg.sample(static_cast<sim::Tick>((i + 1) * 10));
        }
        return reg.takeSeries();
    };

    trace::MetricsSeries acc = makeSeries(1, 2); // rows: 1, 2
    acc.merge(makeSeries(5, 3));                 // rows: 5, 10, 15
    ASSERT_EQ(acc.snapshots().size(), 3u);
    EXPECT_EQ(acc.snapshots()[0].values[0], 6.0);   // 1 + 5
    EXPECT_EQ(acc.snapshots()[1].values[0], 12.0);  // 2 + 10
    EXPECT_EQ(acc.snapshots()[2].values[0], 15.0);  // tail, one rep
    EXPECT_EQ(acc.coverage(),
              (std::vector<std::uint32_t>{2, 2, 1}));
}

TEST(Metrics, CsvExportIsWellFormed)
{
    trace::Registry reg;
    reg.sampled("c", [] { return 7.0; });
    reg.sampled("g", [] { return 1.5; });
    reg.sample(42);
    reg.sample(43);

    std::ostringstream csv;
    reg.takeSeries().writeCsv(csv);
    EXPECT_EQ(csv.str(), "tick,cov,c,g\n42,1,7,1.5\n43,1,7,1.5\n");
}

// ------------------------------------------------------------- tracer

TEST(Tracer, EmitsValidChromeTraceJson)
{
    trace::Tracer t;
    t.complete("coin", "exchange", 5, 800, 1600,
               {{"xid", std::int64_t{42}}, {"outcome", "ok"}});
    t.instant("fault", "inject_drop", 1, 900);
    t.counter("pm", "power_mw", 0, 1000, 123.5);
    ASSERT_EQ(t.eventCount(), 3u);

    std::ostringstream os;
    t.writeJson(os);
    const std::string doc = os.str();
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":0"), std::string::npos);
    EXPECT_NE(doc.find("\"outcome\":\"ok\""), std::string::npos);
    // 800 ticks at 800 MHz = 1 us.
    EXPECT_NE(doc.find("\"ts\":1.0000"), std::string::npos);
}

TEST(Tracer, OverflowCountsDroppedEventsInsteadOfGrowing)
{
    trace::Tracer t(/*maxEvents=*/2);
    t.instant("c", "a", 0, 1);
    t.instant("c", "b", 0, 2);
    t.instant("c", "c", 0, 3);
    EXPECT_EQ(t.eventCount(), 2u);
    EXPECT_EQ(t.droppedEvents(), 1u);
}

TEST(Tracer, AbsorbRehomesReplicationLanes)
{
    trace::Tracer rep;
    rep.instant("c", "n", 7, 10);
    trace::Tracer merged;
    merged.absorb(rep, /*pid=*/4);
    std::ostringstream os;
    merged.writeJson(os);
    EXPECT_NE(os.str().find("\"pid\":4"), std::string::npos);
    EXPECT_EQ(os.str().find("\"pid\":0"), std::string::npos);
}

// ------------------------------------------------------- Soc sampling

// Regression: the Soc metrics sampler's strong self-reference must
// outlive run()'s event loop. A block-scoped owner dies before the
// loop starts, the tick-0 fire fails its weak lock, and the series
// silently collapses to a single tick-0 row.
TEST(Metrics, SocSamplerKeepsFiringAcrossTheWholeRun)
{
    soc::PmConfig pm;
    pm.kind = soc::PmKind::BlitzCoin;
    pm.alloc = coin::AllocPolicy::RelativeProportional;
    pm.budgetMw = soc::budgets::av15Percent;
    trace::Registry reg;
    soc::Soc s(soc::make3x3AvSoc(), pm, /*seed=*/7);
    s.attachMetrics(&reg, /*interval=*/4'096);
    workload::Dag dag = soc::avDependent(s.config(), /*frames=*/1);
    soc::SocRunStats st = s.run(dag);
    ASSERT_TRUE(st.completed);

    const auto &rows = reg.snapshots();
    // One row per interval over the whole run, first at tick 0,
    // strictly increasing on the fixed cadence.
    ASSERT_GE(rows.size(), 4u);
    EXPECT_EQ(rows.front().tick, 0u);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].tick, rows[i - 1].tick + 4'096);
    EXPECT_GE(rows.back().tick + 4'096, st.execTime);
}

// ----------------------------------------- sweep-merge thread identity

std::string
mergedSweepCsv(std::size_t threads)
{
    sweep::SweepOptions opts;
    opts.threads = threads;
    auto acc = sweep::runSweepFold<trace::MetricsSeries>(
        /*replications=*/6, /*rootSeed=*/77,
        [](std::size_t, std::uint64_t seed) {
            coin::EngineConfig cfg;
            trace::Registry reg;
            coin::MeshSim sim(noc::Topology::square(4), cfg, seed);
            trace::attachMeshMetrics(sim, reg, /*interval=*/512);
            for (std::size_t i = 0; i < sim.ledger().size(); ++i)
                sim.setMax(i, 8 << (i % 3));
            sim.clusterHas(120);
            sim.runFor(40'000);
            return reg.takeSeries();
        },
        [](trace::MetricsSeries &acc, const trace::MetricsSeries &s,
           std::size_t) { acc.merge(s); },
        trace::MetricsSeries{}, opts);
    std::ostringstream os;
    acc.writeCsv(os);
    return os.str();
}

TEST(Metrics, MergedSweepSeriesBitIdenticalAcrossThreadCounts)
{
    const std::string one = mergedSweepCsv(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, mergedSweepCsv(2));
    EXPECT_EQ(one, mergedSweepCsv(4));
}

// ------------------------------------------------ attach order

/** Tracer JSON and ring-recorder digest of one observed run. */
struct AttachOrderRun
{
    std::string traceJson;
    std::uint64_t ringDigest = 0;
};

/** A ring recorder small enough to wrap during a test run. */
record::RecorderConfig
ringConfig()
{
    record::RecorderConfig rc;
    rc.chunkRecords = 256;
    rc.maxChunks = 4;
    return rc;
}

/**
 * The 3x3 AV SoC with an enforcing physics plane, with the tracer and
 * a ring recorder attached before the plane (@p observersFirst) or
 * after.
 */
AttachOrderRun
observedSocRun(bool observersFirst)
{
    // The plane and observers must outlive the Soc: declared first.
    soc::PhysicsConfig phys;
    phys.thermal.node.cJPerC = 1e-6;
    phys.trip.tripC = 48.0;
    phys.trip.releaseC = 47.5;
    phys.trip.capFraction = 0.4;
    phys.enforce = true;
    soc::PhysicsPlane physics(phys);
    record::FlightRecorder ring(ringConfig());
    trace::Tracer tracer;

    soc::PmConfig pm;
    pm.kind = soc::PmKind::BlitzCoin;
    pm.budgetMw = soc::budgets::av30Percent;
    soc::Soc s(soc::make3x3AvSoc(), pm, 9);
    auto observe = [&] {
        s.attachTrace(&tracer);
        s.attachRecorder(&ring);
    };
    if (observersFirst)
        observe();
    s.attachPhysics(physics);
    if (!observersFirst)
        observe();
    s.run(soc::avParallel(s.config()));

    std::ostringstream os;
    tracer.writeJson(os);
    return {os.str(), ring.digest()};
}

/**
 * A lossy 3x3 ChaosCluster with one crash window, one freeze window
 * and a Byzantine inflator, with the tracer attached before the ring
 * recorder (@p tracerFirst) or after. Both attach before seeding, so
 * the provisioning mints are on the log either way.
 */
AttachOrderRun
observedChaosRun(bool tracerFirst)
{
    record::FlightRecorder ring(ringConfig());
    trace::Tracer tracer;

    fault::ChaosConfig cc;
    cc.width = 3;
    cc.height = 3;
    cc.auditPeriod = 4'096;
    cc.fault.seed = 5;
    cc.fault.base.drop = 0.01;
    cc.fault.outages.push_back({4, 2'000, 6'000, /*freeze=*/false});
    cc.fault.outages.push_back({2, 3'000, 5'000, /*freeze=*/true});
    fault::ByzantineSpec inflator;
    inflator.node = 0;
    inflator.amount = 2;
    inflator.period = 1'024;
    cc.byzantine.specs.push_back(inflator);
    fault::ChaosCluster c(cc);
    if (tracerFirst) {
        c.attachTrace(&tracer);
        c.attachRecorder(&ring);
    } else {
        c.attachRecorder(&ring);
        c.attachTrace(&tracer);
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
        c.setHas(i, static_cast<coin::Coins>(4 + i));
        c.setMax(i, static_cast<coin::Coins>(2 + 3 * (i % 4)));
    }
    c.sealProvision();
    c.startAll();
    c.eq().runUntil(20'000);

    std::ostringstream os;
    tracer.writeJson(os);
    return {os.str(), ring.digest()};
}

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + 1))
        ++n;
    return n;
}

TEST(AttachOrder, SocObservesTheSameRunInEitherOrder)
{
    const AttachOrderRun before = observedSocRun(true);
    const AttachOrderRun after = observedSocRun(false);
    EXPECT_EQ(before.traceJson, after.traceJson);
    EXPECT_EQ(before.ringDigest, after.ringDigest);
    EXPECT_TRUE(JsonChecker(before.traceJson).valid());
}

TEST(AttachOrder, ChaosObservesTheSameRunInEitherOrder)
{
    const AttachOrderRun tracerFirst = observedChaosRun(true);
    const AttachOrderRun recorderFirst = observedChaosRun(false);
    EXPECT_EQ(tracerFirst.traceJson, recorderFirst.traceJson);
    EXPECT_EQ(tracerFirst.ringDigest, recorderFirst.ringDigest);
    // Re-wiring re-stores pointers only: each scheduled outage window
    // is emitted exactly once however often the harness rewires.
    for (const AttachOrderRun *run : {&tracerFirst, &recorderFirst}) {
        EXPECT_EQ(countOf(run->traceJson, "\"crash_window\""), 1u);
        EXPECT_EQ(countOf(run->traceJson, "\"freeze_window\""), 1u);
    }
    EXPECT_GT(countOf(tracerFirst.traceJson, "\"byzantine\""), 0u)
        << "the inflator never fired inside the run";
    EXPECT_TRUE(JsonChecker(tracerFirst.traceJson).valid());
}

} // namespace
