/**
 * @file
 * Per-run health report: one JSON document summarizing a run.
 *
 * A HealthReport is the machine-readable answer to "did this run do
 * what it always does, and where did the wall-clock go?" — the
 * document a scenario-service daemon streams back per request
 * (ROADMAP item 3) and the input `tools/blitz-top` renders.
 *
 * The report is two strictly separated key/value sections:
 *
 *  - **deterministic**: outcome counters that are pure functions of
 *    (config, seed) — coin conservation gaps, remints, quarantines,
 *    throttle residency, fault totals, event counts, queue and arena
 *    high-water marks. Two runs of the same scenario produce
 *    byte-identical deterministic sections at any *thread* count.
 *    `blitz-top diff` compares exactly this section and treats any
 *    difference as a finding.
 *
 *  - **wallclock**: timings and utilization (sweep-pool busy
 *    fractions). Expected to differ run to run;
 *    diff only reports them side by side, never as a failure.
 *
 * The separation is load-bearing for the repo's determinism contract:
 * wall-clock data may flow *out* of the simulator into this section,
 * but nothing in here ever flows back in. Keeping the two namespaces
 * in different sections makes "a timing leaked into an outcome"
 * visible as a diff failure instead of a silent heisenbug.
 *
 * The report depends only on sim (layering: blitz_trace -> blitz_sim),
 * so domain planes (fault, soc) fill their counters in from their own
 * side via the fillHealth() members and the engine-gauge helpers at
 * the end of this file.
 */

#ifndef BLITZ_TRACE_HEALTH_HPP
#define BLITZ_TRACE_HEALTH_HPP

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace blitz::sim {
class Arena;
class EventQueue;
}

namespace blitz::trace {

/** Two-section run summary; see the file comment. */
class HealthReport
{
  public:
    using Entry = std::pair<std::string, double>;

    /** Free-form run label ("bench_chaos d=64", a scenario hash...). */
    void setRun(std::string label) { run_ = std::move(label); }
    const std::string &run() const { return run_; }

    /** Overwrite-or-create a deterministic outcome counter. */
    void setDet(std::string_view key, double value);
    /** Add into a deterministic counter (sum-fold across trials). */
    void bumpDet(std::string_view key, double value);
    /** Max-fold a deterministic gauge (high-water marks). */
    void maxDet(std::string_view key, double value);

    /** Overwrite-or-create a wall-clock entry. */
    void setWall(std::string_view key, double value);
    /** Add into a wall-clock entry. */
    void bumpWall(std::string_view key, double value);

    /** Entries in insertion order (stable across identical runs). */
    const std::vector<Entry> &deterministic() const { return det_; }
    const std::vector<Entry> &wallclock() const { return wall_; }

    /** Value lookup; nullptr when the key is absent. */
    const double *findDet(std::string_view key) const;
    const double *findWall(std::string_view key) const;

    /**
     * Fold @p other into this report, replaying every entry with the
     * fold mode it was created with on the other side — bump-created
     * counters sum, max-created gauges max-fold, set-created values
     * overwrite. The sweep benches fold per-trial reports in
     * replication order with this, so the merged document is
     * bit-identical at any thread count. Parsed reports fold as sums.
     */
    void absorb(const HealthReport &other);

    void clear();

    /**
     * Write the report as one self-describing JSON document:
     * {"blitzHealth":1,"run":...,"deterministic":{...},
     *  "wallclock":{...}}. Integral values print as integers so the
     * deterministic section is byte-stable and diffable as text.
     */
    void writeJson(std::ostream &os) const;

    /**
     * Parse a document writeJson() produced (replacing this report's
     * contents). Returns false — leaving the report cleared — on
     * anything malformed. Not a general JSON parser: it reads the
     * writeJson() shape, which is all blitz-top needs.
     */
    bool parse(std::istream &is);

    /** One deterministic-section difference between two reports. */
    struct DiffEntry
    {
        std::string key;
        bool inA = false;
        bool inB = false;
        double a = 0.0;
        double b = 0.0;
    };

    /**
     * Keys whose deterministic values differ (exact compare — the
     * section is integral counters and bit-stable doubles) or that
     * are present on one side only, in a's insertion order with b's
     * extras appended.
     */
    static std::vector<DiffEntry> diff(const HealthReport &a,
                                       const HealthReport &b);

  private:
    static void upsert(std::vector<Entry> &section,
                       std::vector<char> &modes, std::string_view key,
                       double value, int mode);

    std::string run_;
    std::vector<Entry> det_;
    std::vector<Entry> wall_;
    /** Fold mode per entry (0 set / 1 bump / 2 max), for absorb(). */
    std::vector<char> detMode_;
    std::vector<char> wallMode_;
};

/**
 * Engine gauges of one event queue into the deterministic section:
 * executed/scheduled totals and depth/batch high-water marks, under
 * "<prefix>.".
 */
void fillQueueHealth(HealthReport &report, const sim::EventQueue &eq,
                     std::string_view prefix = "queue");

/** Arena pressure gauges under "<prefix>." (deterministic). */
void fillArenaHealth(HealthReport &report, const sim::Arena &arena,
                     std::string_view prefix = "arena");

} // namespace blitz::trace

#endif // BLITZ_TRACE_HEALTH_HPP
