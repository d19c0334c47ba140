/**
 * @file
 * Compact binary flight recorder.
 *
 * A FlightRecorder journals Record entries into fixed-size chunks.
 * Two growth modes:
 *
 *  * **Unbounded** (maxChunks = 0): chunks accumulate for the life of
 *    the recording — the mode replay logs are captured in.
 *  * **Ring** (maxChunks > 0): once the budget is reached the oldest
 *    chunk is recycled in place, so steady-state appends perform zero
 *    allocations (enforced by tests/alloc_count_test.cpp). This is
 *    the always-on black-box mode: bounded memory, last-N-events
 *    retained, nothing on the hot path but a store and a bump.
 *
 * Sweep integration mirrors trace::Tracer: each replication records
 * into its own recorder (a *lane*), and the driver absorbs lanes in
 * replication order — the merged stream is bit-identical for any
 * thread count. absorb() restamps Record::lane so a merged log keeps
 * per-replication attribution.
 *
 * The on-disk format is little-endian and versioned:
 *   magic "BLZR" | u32 version | u64 header[16] | u64 count | records
 * The 16 header words belong to the caller (the replay engine packs
 * its scenario there so a log is self-describing).
 */

#ifndef BLITZ_RECORD_RECORDER_HPP
#define BLITZ_RECORD_RECORDER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "records.hpp"
#include "sim/digest.hpp"
#include "sim/types.hpp"

namespace blitz::record {

/** Caller-owned log header (scenario parameters, run metadata). */
using LogHeader = std::array<std::uint64_t, 16>;

/** FlightRecorder growth parameters. */
struct RecorderConfig
{
    /** Records per chunk. */
    std::uint32_t chunkRecords = 4096;
    /** Chunk budget; 0 = unbounded, >0 = ring (zero-alloc). */
    std::uint32_t maxChunks = 0;
};

class FlightRecorder
{
  public:
    using Config = RecorderConfig;

    explicit FlightRecorder(Config cfg = {});

    FlightRecorder(FlightRecorder &&) = default;
    FlightRecorder &operator=(FlightRecorder &&) = default;

    /** Append one record, stamped with lane 0 (absorb() restamps). */
    void
    append(Record r)
    {
        if (mu_) {
            std::lock_guard<std::mutex> lock(*mu_);
            appendLocked(r);
            return;
        }
        appendLocked(r);
    }

    /**
     * Arm (or disarm) concurrent-append mode: append() takes a mutex,
     * so hook sites running in parallel shard phases (sim/shard.hpp)
     * may journal into one recorder without racing the chunks. Within
     * one tick the interleaving across shards is arbitrary — record
     * *counts* stay deterministic, record *order* does not — so
     * sharded golden digests pin counts, never the stream digest, and
     * lockstep replay (order-sensitive by design) stays unsharded.
     * Off by default: the single-threaded path costs one null check.
     */
    void
    setConcurrent(bool on)
    {
        if (on && !mu_)
            mu_ = std::make_unique<std::mutex>();
        else if (!on)
            mu_.reset();
    }

    bool concurrent() const { return mu_ != nullptr; }

    // ---- convenience emitters (plain integers; see records.hpp) ----

    void
    mint(sim::Tick t, std::int64_t tile, std::int64_t amount,
         bool remintFlag = false)
    {
        Record r;
        r.tick = t;
        r.kind = remintFlag ? RecordKind::Remint : RecordKind::Mint;
        r.p0 = tile;
        r.p1 = amount;
        r.p2 = -1;
        r.p3 = -1;
        append(r);
    }

    void
    burn(sim::Tick t, std::int64_t tile, std::int64_t amount)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Burn;
        r.p0 = tile;
        r.p1 = amount;
        append(r);
    }

    void
    exchange(sim::Tick t, std::uint8_t outcome, std::int64_t initiator,
             std::int64_t partner, std::int64_t xid, std::int64_t delta)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Exchange;
        r.flag = outcome;
        r.p0 = initiator;
        r.p1 = partner;
        r.p2 = xid;
        r.p3 = delta;
        append(r);
    }

    void
    nocDeliver(sim::Tick t, std::int64_t dst, int plane, int msgType,
               std::int64_t seq, std::int64_t injectTick)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::NocDeliver;
        r.p0 = dst;
        r.p1 = (static_cast<std::int64_t>(plane) << 8) | msgType;
        r.p2 = seq;
        r.p3 = injectTick;
        append(r);
    }

    void
    fault(sim::Tick t, RecordKind kind, std::uint8_t site, int msgType,
          std::int64_t src, std::int64_t dst, std::int64_t seq,
          std::int64_t extra = 0)
    {
        Record r;
        r.tick = t;
        r.kind = kind;
        r.flag = site;
        r.aux = static_cast<std::uint16_t>(msgType);
        r.p0 = src;
        r.p1 = dst;
        r.p2 = seq;
        r.p3 = extra;
        append(r);
    }

    void
    crash(sim::Tick t, std::int64_t tile, std::int64_t coinsLost)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Crash;
        r.p0 = tile;
        r.p1 = coinsLost;
        append(r);
    }

    void
    restart(sim::Tick t, std::int64_t tile, std::int64_t coinsRestored)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Restart;
        r.p0 = tile;
        r.p1 = coinsRestored;
        append(r);
    }

    void
    pmActuation(sim::Tick t, std::int64_t tile, double freqMhz)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::PmActuation;
        r.p0 = tile;
        r.p1 = static_cast<std::int64_t>(freqMhz * 1000.0 + 0.5);
        append(r);
    }

    void
    snapshot(sim::Tick t, std::int64_t tile, std::int64_t has,
             std::int64_t epoch)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Snapshot;
        r.p0 = tile;
        r.p1 = has;
        r.p2 = epoch;
        append(r);
    }

    void
    snapshotMark(sim::Tick t, std::int64_t epoch, std::int64_t tiles,
                 std::uint64_t stateDigest)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::SnapshotMark;
        r.p0 = epoch;
        r.p1 = tiles;
        r.p3 = static_cast<std::int64_t>(stateDigest);
        append(r);
    }

    void
    byzantine(sim::Tick t, std::uint8_t behavior, std::int64_t node,
              std::int64_t amount, std::int64_t extra = 0)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Byzantine;
        r.flag = behavior;
        r.p0 = node;
        r.p1 = amount;
        r.p2 = extra;
        append(r);
    }

    void
    guardian(sim::Tick t, std::uint8_t event, std::int64_t tile,
             std::int64_t strikes, std::int64_t mask,
             std::int64_t evidence)
    {
        Record r;
        r.tick = t;
        r.kind = RecordKind::Guardian;
        r.flag = event;
        r.p0 = tile;
        r.p1 = strikes;
        r.p2 = mask;
        r.p3 = evidence;
        append(r);
    }

    void
    throttle(sim::Tick t, std::uint8_t event, std::uint8_t source,
             std::int64_t tile, double capMhz, double effectiveCapMhz,
             std::int64_t mask)
    {
        // Infinite caps (released / uncapped) journal as 0 milli-MHz.
        const auto milli = [](double f) {
            return f == std::numeric_limits<double>::infinity()
                       ? std::int64_t{0}
                       : static_cast<std::int64_t>(f * 1000.0 + 0.5);
        };
        Record r;
        r.tick = t;
        r.kind = RecordKind::Throttle;
        r.flag = event;
        r.aux = source;
        r.p0 = tile;
        r.p1 = milli(capMhz);
        r.p2 = milli(effectiveCapMhz);
        r.p3 = mask;
        append(r);
    }

    // ---- introspection ----

    /** Records currently retained (ring mode may have dropped some). */
    std::size_t
    size() const
    {
        return chunks_.empty()
                   ? 0
                   : (chunks_.size() - 1) * cfg_.chunkRecords +
                         writeCursor_;
    }

    /** Records appended over the recorder's lifetime. */
    std::uint64_t totalAppended() const { return appended_; }

    /** Records the ring recycled away (0 in unbounded mode). */
    std::uint64_t droppedOldest() const { return dropped_; }

    /** Global index of the oldest retained record. */
    std::uint64_t baseIndex() const { return dropped_; }

    /** Retained record @p i (0 = oldest retained). */
    const Record &
    at(std::size_t i) const
    {
        return chunks_[i / cfg_.chunkRecords][i % cfg_.chunkRecords];
    }

    /** Mutable access for test/tool tampering — not a hot path. */
    Record &
    mutableAt(std::size_t i)
    {
        return chunks_[i / cfg_.chunkRecords][i % cfg_.chunkRecords];
    }

    /**
     * Append @p o's retained records restamped with @p lane. Called in
     * replication order by sweep drivers, this reproduces one global
     * stream bit-identically at any thread count.
     */
    void absorb(const FlightRecorder &o, std::uint32_t lane);

    void clear();

    /** Order-sensitive FNV-1a over the retained stream. */
    std::uint64_t digest() const;

    // ---- lockstep replay checking ----

    /**
     * Arm lockstep mode: every subsequent append is compared against
     * @p ref's record at the same global index. The first mismatch
     * latches diverged()/divergedAt() and further checking stops.
     * @p ref must outlive this recorder or a disarm() call.
     */
    void
    beginLockstep(const FlightRecorder *ref)
    {
        ref_ = ref;
        diverged_ = false;
        divergedAt_ = 0;
    }

    void disarm() { ref_ = nullptr; }

    bool diverged() const { return diverged_; }

    /** Global index of the first mismatching record. */
    std::uint64_t divergedAt() const { return divergedAt_; }

    // ---- file I/O ----

    /** Write the retained stream; returns false on I/O failure. */
    bool writeFile(const std::string &path,
                   const LogHeader &header = {}) const;

    /**
     * Load a log written by writeFile() into @p out (replacing its
     * contents; out becomes unbounded). Returns false on missing
     * file, bad magic, or version mismatch.
     */
    static bool readFile(const std::string &path, FlightRecorder &out,
                         LogHeader *header = nullptr);

  private:
    void
    appendLocked(Record r)
    {
        r.lane = lane_;
        if (writeCursor_ == cfg_.chunkRecords)
            advanceChunk();
        chunks_[writeChunk_][writeCursor_++] = r;
        ++appended_;
        if (ref_ != nullptr)
            checkLockstep(r);
    }

    void advanceChunk();
    void checkLockstep(const Record &r);

    using Chunk = std::unique_ptr<Record[]>;

    Config cfg_;
    std::vector<Chunk> chunks_;
    std::size_t writeChunk_ = 0;   ///< always chunks_.size() - 1
    std::uint32_t writeCursor_;    ///< == chunkRecords when empty
    std::uint32_t lane_ = 0;
    std::uint64_t appended_ = 0;
    std::uint64_t dropped_ = 0;

    const FlightRecorder *ref_ = nullptr;
    bool diverged_ = false;
    std::uint64_t divergedAt_ = 0;
    /** Present only in concurrent mode (unique_ptr keeps moves). */
    std::unique_ptr<std::mutex> mu_;
};

} // namespace blitz::record

#endif // BLITZ_RECORD_RECORDER_HPP
