/**
 * @file
 * Replay engine: re-execute a recorded chaos replication from its log
 * and prove lockstep equivalence; diff two recordings and bisect to
 * the first divergent event.
 *
 * A flight-recorder log is self-describing: the 16-word file header
 * packs the ReplayScenario that produced it (mesh size, fault rates,
 * crash/partition windows, seed, trial count, snapshot cadence), so
 * `replayVerify` can rebuild the exact ChaosCluster sweep, re-run it
 * with a lockstep-armed recorder, and fail at the first event whose
 * envelope or payload differs from the log — not merely at the end.
 *
 * Bisection uses the SnapshotMark records the recorder emits on a
 * tick cadence: each mark closes an epoch and carries an FNV digest
 * of all tile holdings at that tick. Two recordings are first
 * bisected over the epoch digests (O(log epochs) comparisons) to the
 * first divergent window, then scanned record-by-record inside it;
 * the report attaches the causal context — the divergent pair plus
 * the preceding records touching the same tiles.
 *
 * This target (blitz_replay_engine) links the fault layer; the
 * recorder core (blitz_record) stays dependent on blitz_sim alone.
 */

#ifndef BLITZ_RECORD_REPLAY_HPP
#define BLITZ_RECORD_REPLAY_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "recorder.hpp"
#include "sim/types.hpp"
#include "sweep/sweep.hpp"

namespace blitz::record {

/**
 * The parameter tuple that fully determines a recorded chaos
 * replication sweep (the bench_chaos trial shape). Packs losslessly
 * into the log header, so a recording can be replayed with nothing
 * but the file.
 */
struct ReplayScenario
{
    std::uint32_t d = 4;        ///< mesh is d x d
    double drop = 0.0;          ///< coin-traffic drop rate
    double duplicate = 0.0;
    double corrupt = 0.0;
    bool crash = false;         ///< two timed tile outages
    bool partition = false;     ///< timed column partition
    std::uint64_t seed = 1;     ///< sweep root seed
    std::uint32_t trials = 1;   ///< replications (lanes) in the log
    sim::Tick deadline = 400'000;
    sim::Tick snapshotEvery = 2'048; ///< 0 disables snapshot epochs

    LogHeader pack() const;

    /**
     * Decode a log header. A header no valid scenario packs to — mesh
     * side below 2 or past sim::kMaxMeshNodes tiles, a fault rate that
     * is NaN or outside [0, 1], zero or out-of-range trials, unknown
     * flag bits — yields std::nullopt with the reason in @p error, so
     * a crafted log is refused before it reaches the cluster builder.
     */
    static std::optional<ReplayScenario> unpack(const LogHeader &h,
                                                std::string &error);

    std::string describe() const;
};

/**
 * Run one replication of @p sc seeded with @p seed, journaling into
 * @p rec (a per-replication recorder the caller absorbs as one lane).
 */
void recordTrial(const ReplayScenario &sc, std::uint64_t seed,
                 FlightRecorder &rec);

/**
 * Record the whole sweep (sc.trials replications on the sweep
 * harness, lanes merged in replication order — bit-identical for any
 * opts.threads).
 */
FlightRecorder recordScenario(const ReplayScenario &sc,
                              const sweep::SweepOptions &opts = {});

/** Outcome of a lockstep replay. */
struct ReplayResult
{
    bool match = false;
    std::uint64_t divergedAt = 0; ///< first divergent global index
    std::uint64_t recordsChecked = 0;
};

/**
 * Re-execute @p sc and check every emitted record against @p ref in
 * lockstep. A fresh run emitting more records than the log also
 * counts as divergence (at the first extra index).
 */
ReplayResult replayVerify(const FlightRecorder &ref,
                          const ReplayScenario &sc,
                          const sweep::SweepOptions &opts = {});

/** First divergence between two recordings. */
struct DiffResult
{
    bool identical = false;
    std::uint64_t firstDiff = 0; ///< valid when !identical
    std::uint64_t sizeA = 0;
    std::uint64_t sizeB = 0;
};

DiffResult diffRecordings(const FlightRecorder &a,
                          const FlightRecorder &b);

/** Bisection outcome with causal context. */
struct BisectResult
{
    bool diverged = false;
    std::uint64_t firstDiff = 0;
    /** Record index range of the divergent snapshot window. */
    std::uint64_t windowBegin = 0;
    std::uint64_t windowEnd = 0;
    std::uint64_t epochsCompared = 0; ///< digest probes the bisection used
    std::string context; ///< human-readable causal report
};

/**
 * Locate the first divergent event between @p a and @p b: binary
 * search over snapshot-epoch digests, then a record-level scan of the
 * divergent window. The context report quotes both records and the
 * preceding events that touched the same tiles.
 */
BisectResult bisectRecordings(const FlightRecorder &a,
                              const FlightRecorder &b,
                              std::size_t contextRecords = 8);

/** One-line human rendering of a record. */
std::string describeRecord(const Record &r, std::uint64_t index);

/** Flip a payload bit of record @p index (fabricate corruption). */
bool tamperRecord(FlightRecorder &rec, std::uint64_t index);

} // namespace blitz::record

#endif // BLITZ_RECORD_REPLAY_HPP
