/**
 * @file
 * Property-based invariant suite over the observability plane.
 *
 * Randomized topologies x fault mixes x seeds, with every assertion
 * driven through metrics snapshots (Registry::onSample) rather than by
 * poking simulator internals — so the suite simultaneously checks the
 * protocol invariants and that the metrics plane reports them
 * faithfully.
 *
 * Behavioral engine (MeshSim): the ledger moves both halves of every
 * exchange atomically, so conservation is exact at every snapshot, and
 * holdings must stay non-negative and under any configured thermal
 * cap.
 *
 * Packet-accurate cluster (ChaosCluster): an in-flight one-way
 * exchange holds its delta in a CoinUpdate packet the metrics plane
 * cannot see, and crashes destroy coins until the audit watchdog
 * remints them — so per-snapshot conservation is an envelope (modulo
 * audited remints and bounded in-flight slack), with the exact
 * invariant asserted at quiesce. Counters must be monotonic and must
 * match their ground-truth sources exactly at the final sample.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coin/engine.hpp"
#include "fault/chaos.hpp"
#include "sim/rng.hpp"
#include "trace/attach.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace blitz;

std::size_t
col(const trace::Registry &reg, const std::string &name)
{
    const auto &schema = reg.schema();
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i] == name)
            return i;
    }
    ADD_FAILURE() << "no metric column named " << name;
    return 0;
}

// ------------------------------------------------------------ MeshSim

TEST(Invariant, MeshLedgerConservedCappedNonNegativeAtEverySnapshot)
{
    for (std::uint64_t trial = 1; trial <= 12; ++trial) {
        sim::Rng gen(trial * 0x9e3779b97f4a7c15ull);
        const int w = static_cast<int>(3 + gen.below(4));
        const int h = static_cast<int>(3 + gen.below(4));
        const std::size_t n = static_cast<std::size_t>(w * h);

        coin::EngineConfig cfg;
        cfg.mode = gen.chance(0.5) ? coin::ExchangeMode::OneWay
                                   : coin::ExchangeMode::FourWay;
        cfg.wrap = gen.chance(0.5);
        cfg.lossRate = gen.chance(0.33) ? 0.05 : 0.0;

        std::vector<coin::Coins> maxes(n);
        for (std::size_t i = 0; i < n; ++i)
            maxes[i] = gen.range(0, 24);
        const bool capped = gen.chance(0.5);
        if (capped) {
            cfg.thermalCaps.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                cfg.thermalCaps[i] = maxes[i] * 2 + 8;
        }

        coin::MeshSim sim(noc::Topology(w, h, cfg.wrap), cfg,
                          trial * 31 + 7);
        trace::Registry reg;
        trace::attachMeshMetrics(sim, reg, /*interval=*/512);

        coin::Coins total = 0;
        for (std::size_t i = 0; i < n; ++i) {
            sim.setMax(i, maxes[i]);
            const coin::Coins has =
                maxes[i] > 0 ? gen.range(0, maxes[i]) : 0;
            sim.setHas(i, has);
            total += has;
        }

        const std::size_t totalCol = col(reg, "coin.total");
        std::vector<std::size_t> hasCol(n);
        for (std::size_t i = 0; i < n; ++i)
            hasCol[i] = col(reg, "coin.has." + std::to_string(i));

        std::optional<sim::Tick> lastTick;
        std::size_t rows = 0;
        reg.onSample = [&](const trace::Snapshot &s) {
            ++rows;
            if (lastTick) {
                ASSERT_GT(s.tick, *lastTick) << "trial " << trial;
            }
            lastTick = s.tick;
            ASSERT_EQ(s.values[totalCol], static_cast<double>(total))
                << "conservation broke at tick " << s.tick << ", trial "
                << trial;
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_GE(s.values[hasCol[i]], 0.0)
                    << "tile " << i << " negative at tick " << s.tick;
                if (capped) {
                    ASSERT_LE(s.values[hasCol[i]],
                              static_cast<double>(cfg.thermalCaps[i]))
                        << "tile " << i << " over its thermal cap at "
                        << "tick " << s.tick;
                }
            }
        };

        sim.runFor(100'000);
        EXPECT_GT(rows, 50u) << "sampler barely fired, trial " << trial;
    }
}

// ------------------------------------------------------- ChaosCluster

TEST(Invariant, ChaosClusterEnvelopeAndCountersAtEverySnapshot)
{
    for (std::uint64_t trial = 1; trial <= 6; ++trial) {
        sim::Rng gen(trial * 0xd1b54a32d192ed03ull);
        const int d = static_cast<int>(3 + gen.below(3));
        const auto n = static_cast<std::size_t>(d * d);

        fault::ChaosConfig cc;
        cc.width = d;
        cc.height = d;
        cc.seedBase = 500 + trial;
        cc.fault.seed = trial;
        cc.fault.coinTrafficOnly = true;
        if (gen.chance(0.6))
            cc.fault.base.drop = 0.02 + 0.03 * gen.chance(0.5);
        if (gen.chance(0.4))
            cc.fault.base.duplicate = 0.02;
        if (gen.chance(0.4))
            cc.fault.base.corrupt = 0.02;
        const bool crash = gen.chance(0.5);
        if (crash) {
            cc.fault.outages.push_back(
                {static_cast<noc::NodeId>(gen.below(n)), 2'000, 10'000,
                 false});
            cc.auditPeriod = 4'096;
        }

        fault::ChaosCluster cluster(cc);
        trace::Registry reg;
        cluster.attachMetrics(&reg, /*interval=*/1'024);

        coin::Coins demand = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const coin::Coins m = gen.range(4, 32);
            cluster.setMax(i, m);
            demand += m;
        }
        const coin::Coins pool = demand / 2;
        const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
        for (std::size_t i = 0; i < quarter; ++i)
            cluster.setHas(i,
                           pool / static_cast<coin::Coins>(quarter));
        cluster.sealProvision();
        cluster.startAll();
        const auto expected =
            static_cast<double>(cluster.audit().expected());

        const std::size_t totalCol = col(reg, "coin.total");
        const std::size_t mintedCol = col(reg, "audit.minted");
        // Everything that must never decrease between snapshots.
        const char *monotonic[] = {
            "coin.exchanges_initiated", "coin.exchanges_moved",
            "coin.exchanges_timed_out", "coin.recoveries_sent",
            "coin.updates_recovered",   "coin.duplicates_ignored",
            "coin.corrupted_dropped",   "coin.exchanges_abandoned",
            "audit.gaps_closed",        "audit.minted",
            "audit.burned",             "noc.packets_sent",
            "noc.packets_delivered",    "noc.packets_dropped",
            "noc.total_hops",           "fault.drops",
            "fault.duplicates",         "fault.corruptions",
            "fault.outage_drops",       "sim.events_scheduled",
            "sim.events_executed",
        };
        std::vector<std::size_t> monoCol;
        for (const char *name : monotonic)
            monoCol.push_back(col(reg, name));

        std::vector<double> prev(monoCol.size(), 0.0);
        std::size_t rows = 0;
        reg.onSample = [&](const trace::Snapshot &s) {
            ++rows;
            const double total = s.values[totalCol];
            const double minted = s.values[mintedCol];
            ASSERT_GE(total, 0.0)
                << "negative aggregate ledger at tick " << s.tick;
            // Conservation envelope: alive coins can only come from
            // the provisioned pool plus audited remints, plus the
            // delta of at most one in-flight exchange per unit (a
            // responder applies its half before the initiator hears
            // back). Each delta is bounded by the pool.
            ASSERT_LE(total, 2.0 * expected + minted)
                << "coins appeared from nowhere at tick " << s.tick;
            for (std::size_t i = 0; i < monoCol.size(); ++i) {
                ASSERT_GE(s.values[monoCol[i]], prev[i])
                    << monotonic[i] << " went backwards at tick "
                    << s.tick;
                prev[i] = s.values[monoCol[i]];
            }
        };

        cluster.eq().runUntil(60'000);
        EXPECT_GT(rows, 20u) << "sampler barely fired, trial " << trial;

        // Quiesce asserts the exact invariant internally: after the
        // drain + audit sweep, alive units hold the provisioned total.
        cluster.quiesce();

        // Registry columns must agree exactly with their ground-truth
        // sources when sampled side by side.
        reg.onSample = nullptr;
        reg.sample(cluster.eq().now());
        const auto &last = reg.snapshots().back();
        const auto &fs = cluster.plane().stats();
        EXPECT_EQ(last.values[col(reg, "fault.drops")],
                  static_cast<double>(fs.drops));
        EXPECT_EQ(last.values[col(reg, "fault.corruptions")],
                  static_cast<double>(fs.corruptions));
        EXPECT_EQ(last.values[col(reg, "fault.outage_drops")],
                  static_cast<double>(fs.outageDrops));
        EXPECT_EQ(last.values[col(reg, "noc.packets_sent")],
                  static_cast<double>(cluster.net().packetsSent()));
        std::uint64_t moved = 0, dups = 0;
        for (std::size_t i = 0; i < n; ++i) {
            moved += cluster.unit(i).exchangesMoved();
            dups += cluster.unit(i).duplicatesIgnored();
        }
        EXPECT_EQ(last.values[col(reg, "coin.exchanges_moved")],
                  static_cast<double>(moved));
        EXPECT_EQ(last.values[col(reg, "coin.duplicates_ignored")],
                  static_cast<double>(dups));
        EXPECT_EQ(last.values[totalCol],
                  static_cast<double>(cluster.totalCoins()));
    }
}

} // namespace
