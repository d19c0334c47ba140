#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "fault/chaos.hpp"
#include "fault/fault_plane.hpp"
#include "noc/topology.hpp"
#include "sim/arena.hpp"
#include "sim/digest.hpp"

namespace blitz::record {

namespace {

/** Tick at which every timed fault window has cleared. */
constexpr sim::Tick faultQuietTick = 12'000;
constexpr double convergedTol = 2.5;
constexpr sim::Tick convergedCheckEvery = 64;
constexpr sim::Tick quiesceDrain = 65'536;

std::uint64_t
packDouble(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

double
unpackDouble(std::uint64_t u)
{
    double v = 0.0;
    std::memcpy(&v, &u, sizeof v);
    return v;
}

/** Fold one record into a digest exactly as FlightRecorder::digest. */
void
foldRecord(sim::Fnv1a &d, const Record &r)
{
    d.u64(r.tick);
    d.u64((static_cast<std::uint64_t>(r.lane) << 32) |
          (static_cast<std::uint64_t>(r.kind) << 24) |
          (static_cast<std::uint64_t>(r.flag) << 16) | r.aux);
    d.i64(r.p0);
    d.i64(r.p1);
    d.i64(r.p2);
    d.i64(r.p3);
}

/** Tiles a record touches, for causal-context filtering. */
void
recordTiles(const Record &r, std::int64_t out[2])
{
    out[0] = -1;
    out[1] = -1;
    switch (r.kind) {
      case RecordKind::Mint:
      case RecordKind::Remint:
      case RecordKind::Burn:
      case RecordKind::Crash:
      case RecordKind::Restart:
      case RecordKind::PmActuation:
      case RecordKind::Snapshot:
        out[0] = r.p0;
        break;
      case RecordKind::Exchange:
      case RecordKind::FaultDrop:
      case RecordKind::FaultDelay:
      case RecordKind::FaultDuplicate:
      case RecordKind::FaultCorrupt:
        out[0] = r.p0;
        out[1] = r.p1;
        break;
      case RecordKind::NocDeliver:
      case RecordKind::Byzantine:
      case RecordKind::Guardian:
      case RecordKind::Throttle:
        out[0] = r.p0;
        break;
      case RecordKind::SnapshotMark:
        break;
    }
}

bool
touchesAny(const Record &r, const std::int64_t tiles[4])
{
    std::int64_t own[2];
    recordTiles(r, own);
    for (int i = 0; i < 2; ++i) {
        if (own[i] < 0)
            continue;
        for (int j = 0; j < 4; ++j) {
            if (tiles[j] >= 0 && own[i] == tiles[j])
                return true;
        }
    }
    return false;
}

void
appendLine(std::string &s, const char *prefix, const Record &r,
           std::uint64_t index)
{
    s += prefix;
    s += describeRecord(r, index);
    s += '\n';
}

/** Why @p h is not a packed ReplayScenario; empty when it is one. */
std::string
headerError(const LogHeader &h)
{
    const auto isRate = [](std::uint64_t word) {
        const double v = unpackDouble(word);
        return v >= 0.0 && v <= 1.0; // false for NaN
    };
    if (h[0] < 2 || h[0] > sim::kMaxMeshNodes / h[0])
        return "mesh side " + std::to_string(h[0]) +
               ": need d >= 2 and d*d <= " +
               std::to_string(sim::kMaxMeshNodes);
    if (!isRate(h[1]) || !isRate(h[2]) || !isRate(h[3]))
        return "a fault rate is NaN or outside [0, 1]";
    if ((h[4] & ~std::uint64_t{3}) != 0)
        return "unknown scenario flag bits";
    if (h[6] == 0 || h[6] > UINT32_MAX)
        return "trial count " + std::to_string(h[6]) +
               " is outside [1, 2^32)";
    return {};
}

} // namespace

LogHeader
ReplayScenario::pack() const
{
    LogHeader h{};
    h[0] = d;
    h[1] = packDouble(drop);
    h[2] = packDouble(duplicate);
    h[3] = packDouble(corrupt);
    h[4] = (crash ? 1u : 0u) | (partition ? 2u : 0u);
    h[5] = seed;
    h[6] = trials;
    h[7] = deadline;
    h[8] = snapshotEvery;
    return h;
}

std::optional<ReplayScenario>
ReplayScenario::unpack(const LogHeader &h, std::string &error)
{
    error = headerError(h);
    if (!error.empty())
        return std::nullopt;
    ReplayScenario sc;
    sc.d = static_cast<std::uint32_t>(h[0]);
    sc.drop = unpackDouble(h[1]);
    sc.duplicate = unpackDouble(h[2]);
    sc.corrupt = unpackDouble(h[3]);
    sc.crash = (h[4] & 1u) != 0;
    sc.partition = (h[4] & 2u) != 0;
    sc.seed = h[5];
    sc.trials = static_cast<std::uint32_t>(h[6]);
    sc.deadline = h[7];
    sc.snapshotEvery = h[8];
    return sc;
}

std::string
ReplayScenario::describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%ux%u mesh, drop=%.3f dup=%.3f corrupt=%.3f%s%s, "
                  "seed=%llu, %u trial(s), deadline=%llu, "
                  "snapshot every %llu",
                  d, d, drop, duplicate, corrupt,
                  crash ? ", crash windows" : "",
                  partition ? ", column partition" : "",
                  static_cast<unsigned long long>(seed), trials,
                  static_cast<unsigned long long>(deadline),
                  static_cast<unsigned long long>(snapshotEvery));
    return buf;
}

void
recordTrial(const ReplayScenario &sc, std::uint64_t seed,
            FlightRecorder &rec)
{
    fault::ChaosConfig cc;
    cc.width = static_cast<int>(sc.d);
    cc.height = static_cast<int>(sc.d);
    cc.arena = &sim::threadArena();
    cc.seedBase = seed;
    cc.fault.seed = seed;
    cc.fault.coinTrafficOnly = true;
    cc.fault.base.drop = sc.drop;
    cc.fault.base.duplicate = sc.duplicate;
    cc.fault.base.corrupt = sc.corrupt;
    const auto n = static_cast<std::size_t>(sc.d) * sc.d;
    if (sc.crash) {
        // Same schedule as the chaos bench: two tiles power-fail and
        // come back; their coins are destroyed and reminted.
        cc.fault.outages.push_back({static_cast<noc::NodeId>(n / 2),
                                    3'000, faultQuietTick, false});
        cc.fault.outages.push_back(
            {static_cast<noc::NodeId>(1), 5'000, faultQuietTick, false});
        cc.auditPeriod = 4'096;
    }
    if (sc.partition) {
        noc::Topology topo(static_cast<int>(sc.d),
                           static_cast<int>(sc.d), false);
        cc.fault.partitions.push_back(fault::columnPartition(
            topo, static_cast<int>(sc.d) / 2 - 1, 2'000,
            faultQuietTick));
        cc.auditPeriod = 4'096;
    }

    fault::ChaosCluster cluster(cc);
    // Before provisioning, so the log opens with the mints.
    cluster.attachRecorder(&rec, sc.snapshotEvery);

    // Heterogeneous demand, pool parked on the first quarter — the
    // bench_chaos trial shape (long-range transport required).
    static constexpr coin::Coins levels[4] = {16, 32, 8, 63};
    coin::Coins demand = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const coin::Coins m = levels[i % 4];
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
    cluster.runUntilConverged(convergedTol, convergedCheckEvery,
                              sc.deadline);
    cluster.quiesce(quiesceDrain);
}

FlightRecorder
recordScenario(const ReplayScenario &sc, const sweep::SweepOptions &opts)
{
    return sweep::runSweepAbsorb<FlightRecorder>(
        sc.trials, sc.seed,
        [&sc](std::size_t, std::uint64_t seed) {
            FlightRecorder lane;
            recordTrial(sc, seed, lane);
            return lane;
        },
        opts);
}

ReplayResult
replayVerify(const FlightRecorder &ref, const ReplayScenario &sc,
             const sweep::SweepOptions &opts)
{
    auto lanes = sweep::runSweep(
        static_cast<std::size_t>(sc.trials), sc.seed,
        [&sc](std::size_t, std::uint64_t seed) {
            FlightRecorder lane;
            recordTrial(sc, seed, lane);
            return lane;
        },
        opts);

    FlightRecorder master;
    master.beginLockstep(&ref);
    for (std::size_t i = 0; i < lanes.size(); ++i)
        master.absorb(lanes[i], static_cast<std::uint32_t>(i));
    master.disarm();

    ReplayResult out;
    out.recordsChecked = master.totalAppended();
    if (master.diverged()) {
        out.match = false;
        out.divergedAt = master.divergedAt();
    } else if (master.totalAppended() != ref.totalAppended()) {
        // Fewer records than the log: divergence at the first missing
        // index (extra records are caught by the lockstep check).
        out.match = false;
        out.divergedAt =
            std::min(master.totalAppended(), ref.totalAppended());
    } else {
        out.match = true;
    }
    return out;
}

DiffResult
diffRecordings(const FlightRecorder &a, const FlightRecorder &b)
{
    DiffResult out;
    out.sizeA = a.size();
    out.sizeB = b.size();
    const std::size_t common =
        static_cast<std::size_t>(std::min(out.sizeA, out.sizeB));
    for (std::size_t i = 0; i < common; ++i) {
        if (a.at(i) != b.at(i)) {
            out.firstDiff = i;
            return out;
        }
    }
    if (out.sizeA != out.sizeB) {
        out.firstDiff = common;
        return out;
    }
    out.identical = true;
    return out;
}

BisectResult
bisectRecordings(const FlightRecorder &a, const FlightRecorder &b,
                 std::size_t contextRecords)
{
    BisectResult out;

    // Epoch boundaries: the record index just past each SnapshotMark,
    // with cumulative stream digests at each boundary. One O(n) pass
    // per recording buys O(log epochs) bisection probes.
    auto boundaries = [](const FlightRecorder &r) {
        std::vector<std::uint64_t> idx;
        std::vector<std::uint64_t> cum;
        sim::Fnv1a d;
        idx.push_back(0);
        cum.push_back(d.value());
        for (std::size_t i = 0; i < r.size(); ++i) {
            foldRecord(d, r.at(i));
            if (r.at(i).kind == RecordKind::SnapshotMark) {
                idx.push_back(i + 1);
                cum.push_back(d.value());
            }
        }
        idx.push_back(r.size());
        cum.push_back(d.value());
        return std::pair{std::move(idx), std::move(cum)};
    };
    auto [idxA, cumA] = boundaries(a);
    auto [idxB, cumB] = boundaries(b);

    // Binary search the first boundary whose cumulative digest (or
    // position) disagrees — past the true divergence every cumulative
    // digest differs, so the predicate is monotone.
    const std::size_t m = std::min(idxA.size(), idxB.size());
    std::size_t lo = 0, hi = m; // hi = first divergent boundary, m = none
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        ++out.epochsCompared;
        if (idxA[mid] != idxB[mid] || cumA[mid] != cumB[mid])
            hi = mid;
        else
            lo = mid + 1;
    }

    // Records before the last agreeing boundary are identical; scan
    // only the divergent window.
    const std::size_t begin =
        hi == 0 ? 0 : static_cast<std::size_t>(idxA[hi - 1]);
    out.windowBegin = begin;
    out.windowEnd = std::max(a.size(), b.size());
    if (hi < m)
        out.windowEnd = std::max(idxA[hi], idxB[hi]);

    const std::size_t common = std::min(a.size(), b.size());
    std::size_t firstDiff = common;
    bool found = false;
    for (std::size_t i = begin; i < common; ++i) {
        if (a.at(i) != b.at(i)) {
            firstDiff = i;
            found = true;
            break;
        }
    }
    if (!found && a.size() == b.size()) {
        out.diverged = false;
        return out;
    }
    out.diverged = true;
    out.firstDiff = firstDiff;

    // Causal context: the divergent pair plus the preceding records
    // that touched the same tiles.
    std::string &ctx = out.context;
    std::int64_t tiles[4] = {-1, -1, -1, -1};
    if (firstDiff < a.size())
        recordTiles(a.at(firstDiff), tiles);
    if (firstDiff < b.size())
        recordTiles(b.at(firstDiff), tiles + 2);

    std::vector<std::uint64_t> related;
    for (std::size_t i = firstDiff; i-- > 0 && related.size() < contextRecords;) {
        if (touchesAny(a.at(i), tiles))
            related.push_back(i);
    }
    for (auto it = related.rbegin(); it != related.rend(); ++it)
        appendLine(ctx, "  ... ", a.at(static_cast<std::size_t>(*it)),
                   *it);
    if (firstDiff < a.size())
        appendLine(ctx, "  A:  ", a.at(firstDiff), firstDiff);
    else
        ctx += "  A:  <end of recording>\n";
    if (firstDiff < b.size())
        appendLine(ctx, "  B:  ", b.at(firstDiff), firstDiff);
    else
        ctx += "  B:  <end of recording>\n";
    return out;
}

std::string
describeRecord(const Record &r, std::uint64_t index)
{
    char buf[256];
    const char *kind = recordKindName(r.kind);
    int len = std::snprintf(
        buf, sizeof buf, "#%llu @%llu lane %u %-13s",
        static_cast<unsigned long long>(index),
        static_cast<unsigned long long>(r.tick), r.lane, kind);
    if (len < 0)
        return {};
    auto rest = [&](const char *fmt, auto... args) {
        std::snprintf(buf + len,
                      sizeof buf - static_cast<std::size_t>(len), fmt,
                      args...);
    };
    switch (r.kind) {
      case RecordKind::Mint:
      case RecordKind::Remint:
        rest(" tile %lld amount %lld lineage %lld..%lld",
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<long long>(r.p2),
             static_cast<long long>(r.p3));
        break;
      case RecordKind::Burn:
        rest(" tile %lld amount %lld", static_cast<long long>(r.p0),
             static_cast<long long>(r.p1));
        break;
      case RecordKind::Exchange:
        rest(" outcome %u %lld<->%lld xid %lld delta %lld",
             static_cast<unsigned>(r.flag),
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<long long>(r.p2),
             static_cast<long long>(r.p3));
        break;
      case RecordKind::NocDeliver:
        rest(" dst %lld plane %lld type %lld seq %lld inject @%lld",
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1 >> 8),
             static_cast<long long>(r.p1 & 0xff),
             static_cast<long long>(r.p2),
             static_cast<long long>(r.p3));
        break;
      case RecordKind::FaultDrop:
      case RecordKind::FaultDelay:
      case RecordKind::FaultDuplicate:
      case RecordKind::FaultCorrupt:
        rest(" site %u type %u %lld -> %lld seq %lld extra %lld",
             static_cast<unsigned>(r.flag),
             static_cast<unsigned>(r.aux),
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<long long>(r.p2),
             static_cast<long long>(r.p3));
        break;
      case RecordKind::Crash:
        rest(" tile %lld coins lost %lld",
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1));
        break;
      case RecordKind::Restart:
        rest(" tile %lld", static_cast<long long>(r.p0));
        break;
      case RecordKind::PmActuation:
        rest(" tile %lld freq %.3f MHz", static_cast<long long>(r.p0),
             static_cast<double>(r.p1) / 1000.0);
        break;
      case RecordKind::Snapshot:
        rest(" tile %lld has %lld epoch %lld",
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<long long>(r.p2));
        break;
      case RecordKind::SnapshotMark:
        rest(" epoch %lld tiles %lld digest %016llx",
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<unsigned long long>(r.p3));
        break;
      case RecordKind::Byzantine:
        rest(" behavior %u node %lld amount %lld extra %lld",
             static_cast<unsigned>(r.flag),
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<long long>(r.p2));
        break;
      case RecordKind::Guardian:
        rest(" event %u tile %lld strikes %lld mask %lld "
             "evidence %lld",
             static_cast<unsigned>(r.flag),
             static_cast<long long>(r.p0),
             static_cast<long long>(r.p1),
             static_cast<long long>(r.p2),
             static_cast<long long>(r.p3));
        break;
      case RecordKind::Throttle:
        rest(" event %u source %u tile %lld cap %.3f MHz "
             "effective %.3f MHz mask %lld",
             static_cast<unsigned>(r.flag),
             static_cast<unsigned>(r.aux),
             static_cast<long long>(r.p0),
             static_cast<double>(r.p1) / 1000.0,
             static_cast<double>(r.p2) / 1000.0,
             static_cast<long long>(r.p3));
        break;
    }
    return buf;
}

bool
tamperRecord(FlightRecorder &rec, std::uint64_t index)
{
    if (index >= rec.size())
        return false;
    // Flip the low payload bit — a single-event corruption for the
    // bisector to find.
    rec.mutableAt(static_cast<std::size_t>(index)).p1 ^= 1;
    return true;
}

} // namespace blitz::record
