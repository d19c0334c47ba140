/**
 * @file
 * Superstep profiler: the introspection half of the observability
 * plane, pointed at the *simulator* instead of the simulated SoC.
 *
 * The trace plane (tracer.hpp, metrics.hpp) answers "what did the
 * mesh do?"; this file answers "where did the engine's cycles go?" —
 * per-shard execute time, barrier wait, mailbox drain, serial-lane
 * time, the imbalance ratio between the hottest and coldest shard,
 * and the engine gauges at the hot seams (event-queue depth/batch
 * high-water marks, arena pressure).
 *
 * Data flow: sim::ShardGroup writes raw slots into a sim::ShardProbe
 * (defined in sim/shard.hpp so sim keeps its no-upward-deps
 * layering); the SuperstepProfiler here owns the probe, attaches it,
 * and exports it into HealthReport sections (fillHealth): deterministic
 * counts (supersteps, per-shard events, mailbox matrix) into the
 * deterministic section, wall-clock phase totals and the imbalance
 * ratio into the wallclock section.
 *
 * Determinism: attaching the profiler never perturbs a run (golden
 * digests are pinned with it attached at shards 1/2/4); wall-clock
 * values flow out only, never back into simulation.
 */

#ifndef BLITZ_TRACE_PROF_HPP
#define BLITZ_TRACE_PROF_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/shard.hpp"

namespace blitz::trace {

class HealthReport;

/** Owns a sim::ShardProbe and renders it; see the file comment. */
class SuperstepProfiler
{
  public:
    SuperstepProfiler() = default;
    ~SuperstepProfiler() { detach(); }

    SuperstepProfiler(const SuperstepProfiler &) = delete;
    SuperstepProfiler &operator=(const SuperstepProfiler &) = delete;

    /**
     * Size the probe for @p group and attach it. Call between runs
     * (never mid-superstep); re-attaching to another group resets the
     * accumulated slots. The profiler must outlive the attachment —
     * the destructor detaches.
     */
    void attach(sim::ShardGroup &group);

    /** Detach from the current group (safe when never attached). */
    void detach();

    bool attached() const { return group_ != nullptr; }
    const sim::ShardProbe &probe() const { return probe_; }

    /** Hottest / coldest per-shard execute-time ratio (>= 1). */
    double imbalance() const { return probe_.imbalance(); }

    /**
     * Fill @p report: deterministic superstep/event/mailbox counts
     * plus the attached group's queue and arena gauges into the
     * deterministic section, phase wall-clock into wallclock.
     */
    void fillHealth(HealthReport &report) const;

  private:
    sim::ShardGroup *group_ = nullptr;
    sim::ShardProbe probe_;
};

/**
 * Engine gauges of one (possibly sharded-anchor) event queue into the
 * deterministic section: executed/scheduled totals and depth/batch
 * high-water marks, under "<prefix>.".
 */
void fillQueueHealth(HealthReport &report, const sim::EventQueue &eq,
                     std::string_view prefix = "queue");

/** Arena pressure gauges under "<prefix>." (deterministic). */
void fillArenaHealth(HealthReport &report, const sim::Arena &arena,
                     std::string_view prefix = "arena");

/** Shard count, epochs and cross-shard events under "shard.". */
void fillShardHealth(HealthReport &report, const sim::ShardGroup &group);

} // namespace blitz::trace

#endif // BLITZ_TRACE_PROF_HPP
