/**
 * @file
 * Metrics registry: the time-series half of the observability plane.
 *
 * A Registry holds named sampled gauges — callbacks that read state a
 * component already keeps — and appends one Snapshot of every gauge
 * each time sample() is called. The hot path therefore pays nothing:
 * there is no counter slot to bump, only reads at snapshot time.
 *
 * Determinism contract (see DESIGN.md "Observability plane"): every
 * value in a snapshot derives from simulator state at an exact tick,
 * never from wall-clock or allocation addresses, so a (seed, config)
 * pair fully determines the series. Per-replication series from a
 * sweep merge in replication-index order (MetricsSeries::merge via
 * sweep::runSweepFold), making the merged series bit-identical at any
 * thread count.
 */

#ifndef BLITZ_TRACE_METRICS_HPP
#define BLITZ_TRACE_METRICS_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace blitz::trace {

/** One row of the series: every gauge's value at one tick. */
struct Snapshot
{
    sim::Tick tick = 0;
    std::vector<double> values; ///< schema order
};

/**
 * Detached snapshot series: the schema plus the sampled rows, without
 * the live callbacks. This is what sweep trials return and what the
 * fold merges; Registry::takeSeries() hands over its rows in this shape.
 */
class MetricsSeries
{
  public:
    /** Column names, in registration order. */
    const std::vector<std::string> &schema() const { return schema_; }
    const std::vector<Snapshot> &snapshots() const { return rows_; }

    /**
     * Number of replications folded into each row (1 for a plain
     * registry series). Rows beyond a short replication's end keep the
     * coverage of the replications that reached them.
     */
    const std::vector<std::uint32_t> &coverage() const { return cov_; }

    bool empty() const { return rows_.empty(); }

    /**
     * Fold another replication's series into this one.
     *
     * Schemas must match. Rows align by index: where both series have
     * a row the ticks must agree and the values are summed column-wise
     * (downstream divides by coverage() for per-replication means);
     * the longer series' tail is appended as-is. Folding in
     * replication-index order — what sweep::runSweepFold guarantees —
     * therefore yields a bit-identical result at any thread count.
     */
    void merge(const MetricsSeries &other);

    /** "tick,cov,<name>..." header plus one row per snapshot. */
    void writeCsv(std::ostream &os) const;

  private:
    friend class Registry;
    std::vector<std::string> schema_;
    std::vector<Snapshot> rows_;
    std::vector<std::uint32_t> cov_;
};

/**
 * Named sampled-gauge registry with snapshot recording.
 *
 * Registration order defines the column order; register everything
 * before the first sample() — adding a gauge afterwards panics, since
 * earlier rows would be missing the column.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register a gauge evaluated by callback at each sample(). */
    void sampled(std::string name, std::function<double()> fn);

    const std::vector<std::string> &schema() const { return schema_; }

    /** Append one snapshot of every gauge at @p tick. */
    void sample(sim::Tick tick);

    /** Rows recorded so far. */
    const std::vector<Snapshot> &snapshots() const
    {
        return series_.rows_;
    }

    /**
     * Observer invoked after each sample() with the appended row —
     * the invariant tests hang their per-snapshot assertions here.
     */
    std::function<void(const Snapshot &)> onSample;

    /** Move out the recorded series, leaving the registry empty of rows. */
    MetricsSeries takeSeries();

  private:
    std::vector<std::string> schema_;
    std::vector<std::function<double()>> fns_; ///< parallel to schema_
    MetricsSeries series_;
};

} // namespace blitz::trace

#endif // BLITZ_TRACE_METRICS_HPP
