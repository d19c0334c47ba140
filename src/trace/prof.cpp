#include "prof.hpp"

#include <cstdio>

#include "health.hpp"

namespace blitz::trace {

namespace {

std::string
shardKey(std::string_view prefix, std::uint32_t shard,
         const char *field)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.*s/shard%u.%s",
                  static_cast<int>(prefix.size()), prefix.data(), shard,
                  field);
    return buf;
}

constexpr double kNsPerMs = 1e6;

} // namespace

void
SuperstepProfiler::attach(sim::ShardGroup &group)
{
    detach();
    probe_.init(group.shards());
    group.attachProbe(&probe_);
    group_ = &group;
}

void
SuperstepProfiler::detach()
{
    if (group_) {
        group_->attachProbe(nullptr);
        group_ = nullptr;
    }
}

void
SuperstepProfiler::fillHealth(HealthReport &report) const
{
    const std::uint32_t shards =
        static_cast<std::uint32_t>(probe_.shards.size());

    // Deterministic: pure functions of (config, seed, shard count).
    report.bumpDet("prof.shards", static_cast<double>(shards));
    report.bumpDet("prof.supersteps",
                   static_cast<double>(probe_.supersteps));
    report.bumpDet("prof.supersteps.fastpath",
                   static_cast<double>(probe_.fastPath));
    report.bumpDet("prof.supersteps.barrier",
                   static_cast<double>(probe_.barriers));
    report.bumpDet("prof.drain.count",
                   static_cast<double>(probe_.drain.count));
    std::uint64_t cross = 0;
    for (std::uint64_t m : probe_.mailbox)
        cross += m;
    report.bumpDet("prof.cross.events", static_cast<double>(cross));
    for (std::uint32_t s = 0; s < shards; ++s) {
        report.bumpDet(shardKey("prof", s, "events"),
                       static_cast<double>(probe_.shards[s].executed));
        std::uint64_t inbox = 0;
        for (std::uint32_t src = 0; src < shards; ++src)
            inbox +=
                probe_.mailbox[static_cast<std::size_t>(src) * shards +
                               s];
        report.bumpDet(shardKey("prof", s, "inbox"),
                       static_cast<double>(inbox));
    }

    // Wall-clock: timings only; never read back into simulation.
    report.setWall("prof.imbalance", imbalance());
    double execMs = 0.0;
    double barrierMs = 0.0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        const sim::ShardProbe::Shard &slot = probe_.shards[s];
        report.bumpWall(shardKey("prof", s, "exec_ms"),
                        static_cast<double>(slot.execute.ns) / kNsPerMs);
        report.bumpWall(shardKey("prof", s, "barrier_ms"),
                        static_cast<double>(slot.barrier.ns) / kNsPerMs);
        execMs += static_cast<double>(slot.execute.ns) / kNsPerMs;
        barrierMs += static_cast<double>(slot.barrier.ns) / kNsPerMs;
    }
    report.bumpWall("prof.exec_ms", execMs);
    report.bumpWall("prof.barrier_ms", barrierMs);
    report.bumpWall("prof.drain_ms",
                    static_cast<double>(probe_.drain.ns) / kNsPerMs);
    report.bumpWall("prof.serial_ms",
                    static_cast<double>(probe_.serial.ns) / kNsPerMs);

    if (group_) {
        fillQueueHealth(report, group_->leaf(group_->shards()),
                        "queue.serial");
        fillArenaHealth(report, group_->shardArena(group_->shards()),
                        "arena.serial");
        for (std::uint32_t s = 0; s < group_->shards(); ++s) {
            const std::string tag = std::to_string(s);
            fillQueueHealth(report, group_->leaf(s),
                            "queue/shard" + tag);
            fillArenaHealth(report, group_->shardArena(s),
                            "arena/shard" + tag);
        }
    }
}

void
fillQueueHealth(HealthReport &report, const sim::EventQueue &eq,
                std::string_view prefix)
{
    const std::string p(prefix);
    report.bumpDet(p + ".scheduled",
                   static_cast<double>(eq.totalScheduled()));
    report.bumpDet(p + ".executed",
                   static_cast<double>(eq.totalExecuted()));
    report.maxDet(p + ".depth_hwm",
                  static_cast<double>(eq.depthHighWater()));
    report.maxDet(p + ".batch_hwm",
                  static_cast<double>(eq.batchHighWater()));
}

void
fillArenaHealth(HealthReport &report, const sim::Arena &arena,
                std::string_view prefix)
{
    const std::string p(prefix);
    report.maxDet(p + ".reserved_bytes",
                  static_cast<double>(arena.bytesReserved()));
    report.maxDet(p + ".used_hwm_bytes",
                  static_cast<double>(arena.bytesHighWater()));
}

void
fillShardHealth(HealthReport &report, const sim::ShardGroup &group)
{
    report.bumpDet("shard.count", static_cast<double>(group.shards()));
    report.bumpDet("shard.epochs", static_cast<double>(group.epochs()));
    report.bumpDet("shard.cross_events",
                   static_cast<double>(group.crossEvents()));
}

} // namespace blitz::trace
