/**
 * @file
 * BSP-sharded execution of one simulation across threads.
 *
 * A ShardGroup partitions a mesh into contiguous bands, gives each
 * band its own EventQueue leaf (plus a serial "global" lane for
 * mesh-wide observers: audits, samplers, snapshot sweeps), and runs
 * the whole ensemble bulk-synchronously: every superstep executes all
 * events of one distinct tick T in parallel across the shards, then
 * drains the per-shard-pair mailboxes at a barrier. The NoC's
 * 1-cycle-per-hop guarantee is the conservative lookahead horizon
 * that makes this safe — an event executing at tick T can influence
 * another shard no earlier than T+1, so inside a superstep the shards
 * touch disjoint state by construction (see DESIGN.md "BSP-sharded
 * execution").
 *
 * Determinism does not come from the barrier alone: same-tick events
 * are merged by the (tick, priority, origin locus, per-locus counter)
 * key EventQueue::packOrdSharded builds, which is a pure function of
 * the schedule-causing mesh node — never of the shard layout — so
 * shard counts 1, 2 and 4 produce bit-identical runs (pinned by the
 * golden digests).
 */

#ifndef BLITZ_SIM_SHARD_HPP
#define BLITZ_SIM_SHARD_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "arena.hpp"
#include "event_queue.hpp"
#include "types.hpp"

namespace blitz::sim {

/**
 * Shard count to use when a harness knob is 0: the BLITZ_SHARDS
 * environment variable if set and valid (see envCount), else 1
 * (sharding stays opt-in — the legacy single-queue path is the
 * default).
 */
std::uint32_t defaultShards();

/**
 * Partition a width x height row-major mesh into @p shards contiguous
 * column bands (shard of node = band of its x coordinate). Column
 * bands keep every shard's boundary one hop wide under XY routing.
 * @return shard index per node id; @p shards is clamped to width.
 */
std::vector<std::uint32_t> columnBands(std::uint32_t width,
                                       std::uint32_t height,
                                       std::uint32_t shards);

/**
 * Raw accounting slots for the superstep profiler (the data half; the
 * exporter lives in trace/prof.hpp so sim keeps its no-upward-deps
 * layering). Attach to a ShardGroup *before* running; the group then
 * pays one pointer check per phase when detached and a handful of
 * steady-clock reads per superstep when attached — never an
 * allocation (everything here is sized by init()).
 *
 * Determinism contract: every wall-clock field (the Phase::ns slots)
 * is write-only from the simulator's point of view — nothing ever
 * reads it back into a scheduling decision — so an attached probe is
 * digest-identical to a detached run. The event, mailbox and
 * superstep counters are pure functions of the schedule and therefore
 * deterministic.
 */
struct ShardProbe
{
    /** One accumulated timing slot. */
    struct Phase
    {
        std::uint64_t ns = 0;    ///< wall-clock total (nondeterministic)
        std::uint64_t count = 0; ///< times the phase ran (deterministic)
    };

    /** Per-shard accumulators. */
    struct Shard
    {
        Phase execute; ///< parallel-phase event execution
        Phase barrier; ///< idle at the superstep barrier (span - exec)
        std::uint64_t executed = 0; ///< events run in parallel phases
    };

    std::vector<Shard> shards;
    Phase drain;  ///< mailbox drain (main thread, between phases)
    Phase serial; ///< serial observer lane
    /** Cross events by (src, dst): [src * shards + dst]. */
    std::vector<std::uint64_t> mailbox;
    std::uint64_t supersteps = 0;
    std::uint64_t fastPath = 0; ///< single-active-shard supersteps
    std::uint64_t barriers = 0; ///< multi-active (barrier) supersteps

    /** Size every slot for @p shardCount shards and reset all counts. */
    void init(std::uint32_t shardCount);

    /** Largest / smallest per-shard execute time ratio (>= 1). */
    double imbalance() const;
};

/**
 * Owner of the sharded execution state: the leaf queues and their
 * arenas, the per-locus ordering counters, the mailboxes, and the
 * worker threads. Construction binds the anchor queue (which must be
 * empty); every existing schedule()/scheduleIn()/scheduleAtNode()
 * call site then routes through the group transparently, and the
 * anchor's runUntil() drives the superstep loop. Destruction unbinds
 * the anchor, so the group must outlive every scheduled event but die
 * before the anchor does (declare it after the queue, or last).
 */
class ShardGroup
{
  public:
    /**
     * @param anchor the queue all components schedule through; must
     *        be empty and stays empty while bound.
     * @param shards number of parallel leaves. @pre >= 1.
     * @param shardOfNode owning shard per mesh node id; values must
     *        be < shards and every shard must own at least one node
     *        (PanicError otherwise; columnBands() over a count clamped
     *        to the mesh width satisfies both).
     */
    ShardGroup(EventQueue &anchor, std::uint32_t shards,
               std::vector<std::uint32_t> shardOfNode);
    ~ShardGroup();

    ShardGroup(const ShardGroup &) = delete;
    ShardGroup &operator=(const ShardGroup &) = delete;

    std::uint32_t shards() const { return shards_; }
    std::uint32_t
    shardOf(std::uint32_t node) const
    {
        return shardOfNode_[node];
    }

    /**
     * Arena owned by shard @p s (index shards() = the serial lane's).
     * Per-shard pools (the NoC's packet-event blocks) must draw from
     * their own shard's arena so parallel-phase growth never races.
     */
    Arena &
    shardArena(std::uint32_t s)
    {
        return *arenas_[s];
    }

    /** Supersteps executed so far (one per distinct event tick). */
    std::uint64_t epochs() const { return epochs_; }

    /** Events that crossed a shard boundary through a mailbox. */
    std::uint64_t crossEvents() const { return crossEvents_; }

    /**
     * Attach the superstep profiler's accounting slots (nullptr
     * detaches). Call between runs only — never from inside a
     * superstep. The probe is init()-ed for this group's shard count
     * if the caller has not done so already (preserving its sampling
     * knobs), and must outlive the attachment.
     */
    void attachProbe(ShardProbe *probe);

    /** Leaf queue of shard @p s (index shards() = the serial lane). */
    const EventQueue &
    leaf(std::uint32_t s) const
    {
        return *leafPtrs_[s];
    }

  private:
    /**
     * A boundary-crossing event parked until the next barrier: the
     * full sort key plus the callback captured as raw bytes (cross-
     * shard callbacks are statically required to be trivially
     * copyable and inline-sized).
     */
    struct CrossEvent
    {
        Tick when;
        std::uint64_t ord;
        std::uint32_t locus;
        std::uint32_t bytes;
        void (*invoke)(void *);
        alignas(std::max_align_t)
            unsigned char buf[EventQueue::kInlineCallback];
    };

    /** Single-writer (src shard), drained only at barriers. */
    struct Mailbox
    {
        std::vector<CrossEvent> entries;
    };

    static void crossPushHook(ShardGroup *g, std::uint32_t srcShard,
                              std::uint32_t dstShard, Tick when,
                              std::uint64_t ord, std::uint32_t locus,
                              void (*invoke)(void *),
                              const void *payload, std::size_t bytes);
    static std::uint64_t runUntilHook(ShardGroup *g, Tick limit);

    std::uint64_t runUntilImpl(Tick limit);
    std::uint64_t runShardPhase(std::uint32_t shard, Tick t);
    void drainMail();
    void workerMain(std::uint32_t shard);
    void probeBarrier(std::uint64_t spanNs);

    EventQueue &anchor_;
    std::uint32_t shards_;
    std::uint32_t nodeCount_;
    std::vector<std::uint32_t> shardOfNode_;
    std::vector<std::uint64_t> locusCounters_; ///< nodeCount_ + 1
    std::vector<std::unique_ptr<Arena>> arenas_; ///< shards_ + 1
    std::vector<std::unique_ptr<EventQueue>> leaves_; ///< shards_ + 1
    std::vector<EventQueue *> leafPtrs_;
    std::vector<Mailbox> mail_; ///< shards_ x shards_, row = src

    // Superstep barrier. Condvar-based on purpose: worker threads
    // must *sleep* between phases — a spin barrier would starve the
    // very shards it waits for on machines with few cores.
    std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    Tick epochTick_ = 0;
    std::uint64_t phaseSeq_ = 0;
    std::uint32_t pendingWorkers_ = 0;
    bool shutdown_ = false;
    std::vector<char> shardActive_; ///< main-thread bookkeeping only
    /// Per-worker phase assignment, written under mu_. Workers wait on
    /// *their own* slot changing — never on shardActive_, which the
    /// fast path rewrites without the lock and which a parked worker
    /// slow to wake could otherwise re-read a superstep late.
    std::vector<std::uint64_t> workerSeq_;
    std::vector<std::uint64_t> phaseExecuted_;
    /// Per-shard phase wall time (ns), written like phaseExecuted_:
    /// by the owning worker under mu_, read by the main thread after
    /// the barrier. Only maintained while a probe is attached.
    std::vector<std::uint64_t> phaseNs_;
    std::vector<std::thread> workers_; ///< shards_ - 1 (shard 0 is
                                       ///< driven by the caller)

    std::uint64_t epochs_ = 0;
    std::uint64_t crossEvents_ = 0;
    ShardProbe *probe_ = nullptr; ///< not owned; null = detached
};

} // namespace blitz::sim

#endif // BLITZ_SIM_SHARD_HPP
