/**
 * @file
 * Activity-trace recording and replay.
 *
 * The paper's RTL flow exports tile-activity waveforms and
 * post-processes them (Artifact Appendix E/F). This module is the
 * equivalent bridge for this repo: record the activity edges of a
 * full-SoC run (or synthesize them) and replay them onto the fast
 * behavioral engine — so a design-space sweep (back-off law, pairing
 * period, coin precision) can be driven by a *real* workload's
 * activity pattern instead of a synthetic generator, at Monte-Carlo
 * speed.
 */

#ifndef BLITZ_WORKLOAD_TRACE_HPP
#define BLITZ_WORKLOAD_TRACE_HPP

#include <vector>

#include "coin/engine.hpp"
#include "phase_gen.hpp"

namespace blitz::workload {

/**
 * A time-ordered list of per-tile activity edges with per-tile coin
 * targets attached.
 */
class ActivityTrace
{
  public:
    ActivityTrace() = default;

    /** Append an edge; times must be non-decreasing. */
    void record(sim::Tick when, std::uint32_t tile, bool active);

    /** Set a tile's coin target while active (default 16). */
    void setTargetCoins(std::uint32_t tile, coin::Coins target);

    std::size_t size() const { return events_.size(); }
    const std::vector<PhaseEvent> &events() const { return events_; }
    sim::Tick horizon() const;

    /** Highest tile index referenced (determines replay mesh size). */
    std::uint32_t maxTile() const;

    /** Build a trace from a phase generator (synthetic churn). */
    static ActivityTrace fromGenerator(PhaseGenerator &gen,
                                       sim::Tick horizon);

    /**
     * Replay statistics: what the coin exchange did while the trace's
     * activity pattern ran.
     */
    struct ReplayStats
    {
        std::uint64_t packets = 0;
        std::uint64_t exchanges = 0;
        /** Fraction of samples with a reallocation in flight. */
        double busyFraction = 0.0;
        /** Worst per-tile residual at the end of the replay. */
        double finalMaxError = 0.0;
    };

    /**
     * Replay onto a behavioral mesh.
     * @param sim engine sized to cover maxTile(); targets are applied
     *        through setMax at each edge.
     * @param samplePeriod busy-fraction sampling cadence (ticks).
     */
    ReplayStats replayOn(coin::MeshSim &sim,
                         sim::Tick samplePeriod = 200) const;

  private:
    std::vector<PhaseEvent> events_;
    std::vector<coin::Coins> targets_; ///< by tile; 16 if unset
};

} // namespace blitz::workload

#endif // BLITZ_WORKLOAD_TRACE_HPP
