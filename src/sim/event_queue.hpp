/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The full-SoC model (NoC routers, BlitzCoin FSMs, accelerators, LDO
 * controllers) is event driven: components schedule callbacks at future
 * ticks and the queue executes them in (tick, priority, insertion-order)
 * order, so simulations are deterministic regardless of scheduling
 * pattern. The behavioral coin-exchange engine does not use this kernel;
 * it steps a global clock directly for Monte-Carlo speed.
 *
 * Internals (see DESIGN.md "Scheduler internals" and ch. 8 "Mega-mesh
 * hot path"): events live in slab-allocated nodes.
 * Ordering uses a calendar structure instead of a global heap: ticks
 * within a kWheelTicks window of now() hash into per-tick wheel
 * buckets (unsorted O(1) append), and a whole tick's bucket is drained
 * as one *batch*, sorted by the 64-bit ord key only when appends
 * arrived out of ord order (steady-state traffic appends in ascending
 * ord, so the common case never sorts). Events beyond the window park
 * in a small 4-ary far-heap and migrate into the wheel as time
 * advances. Because every entry carries the full (tick, priority,
 * insertion-seq) key and keys are unique, the drain order is exactly
 * the total order the old heap produced — batching is invisible to
 * the golden digests — but per-event cost no longer grows with the
 * pending-event population, which is what makes 100x100..1000x1000
 * meshes affordable. Callbacks are stored in a small inline buffer
 * inside the node (heap fallback only for oversized functors), so
 * scheduling an event performs zero allocations once the slab and the
 * first wheel revolution have warmed up. A scheduled event always
 * runs; a wakeup that may be retracted or moved is a sim::Timer, which
 * keeps at most one queued entry.
 */

#ifndef BLITZ_SIM_EVENT_QUEUE_HPP
#define BLITZ_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "arena.hpp"
#include "logging.hpp"
#include "types.hpp"

namespace blitz::sim {

/**
 * Relative ordering of events scheduled for the same tick.
 * Lower values run first.
 */
enum class Priority : int
{
    NocTransfer = 0,  ///< packet hops land before logic reacts to them
    Default = 10,
    Controller = 20,  ///< PM controllers act after state settles
    Stats = 30,       ///< sampling sees the post-update state
};

class EventQueue;

/**
 * Queue entry: the complete (when, priority, insertion-seq) sort key
 * plus what runs. Priority and sequence pack into one word — 16 bits
 * of priority class over a 48-bit sequence counter (2^48 events ≈
 * centuries of simulated work) — so ordering is two integer compares
 * over contiguous memory. `ref` is a slab slot shifted left by one (a
 * scheduled event) or a Timer's address with the low bit set.
 */
struct HeapEntry
{
    Tick when;
    std::uint64_t ord;
    std::uintptr_t ref;
};

/**
 * A re-armable wakeup with at most one queued entry: the model of a
 * hardware counter register that is reloaded, not queued again.
 * arm()/armIn() key the entry exactly as schedule()/scheduleIn() would
 * (same insertion counter) and drop the previous one; disarm() drops
 * it and consumes no key. A firing disarms the timer before the
 * callback runs, so the callback may re-arm it. The callback lives in
 * the timer and the entry points back at it, so a re-arm creates no
 * callable (DESIGN.md §4d).
 */
class Timer
{
  public:
    /** @p fn: small trivially copyable callable, typically [this]. */
    template <typename Fn>
    Timer(EventQueue &eq, Fn fn, Priority prio = Priority::Default)
        : q_(&eq), prio_(prio)
    {
        static_assert(std::is_invocable_v<Fn &> &&
                          std::is_trivially_copyable_v<Fn> &&
                          sizeof(Fn) <= sizeof buf_ &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "timer callbacks must be small trivially "
                      "copyable callables");
        ::new (static_cast<void *>(buf_)) Fn(fn);
        invoke_ = [](void *p) {
            (*std::launder(reinterpret_cast<Fn *>(p)))();
        };
    }
    ~Timer() { disarm(); }
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    void arm(Tick when); ///< (re)arm at @p when, not in the past
    void armIn(Tick delta);
    /** Drop the queued entry, if any (the queue may have died first). */
    void
    disarm()
    {
        if (armed_)
            detach();
    }
    bool armed() const { return armed_; }

  private:
    friend class EventQueue;

    /** Where the entry sits in q_: the live batch (found by ord), a
     *  wheel bucket (at cell_) or the far-heap (at pos_). */
    enum class Where : std::uint8_t
    {
        Batch,
        Wheel,
        Far
    };

    void detach();
    std::uintptr_t
    ref() const
    {
        return reinterpret_cast<std::uintptr_t>(this) | 1;
    }

    EventQueue *q_;         ///< queue armed on
    std::uint64_t ord_ = 0; ///< the entry's key
    HeapEntry *cell_ = nullptr;
    std::size_t pos_ = 0;
    void (*invoke_)(void *) = nullptr;
    Priority prio_;
    Where where_ = Where::Batch;
    bool armed_ = false; ///< an entry is queued
    alignas(std::max_align_t) unsigned char buf_[16];
};

/**
 * Time-ordered event queue.
 *
 * Events are arbitrary callables ordered by (tick, priority,
 * insertion order). A scheduled event always runs; a Timer's entry
 * runs unless the timer is disarmed or re-armed first.
 */
class EventQueue
{
  public:
    /**
     * @param arena backing store for the event slab; nullptr (the
     *        default) heap-allocates. Pass a sweep worker's arena to
     *        recycle slab chunks across replications — the queue must
     *        then be destroyed before the arena resets.
     */
    explicit EventQueue(Arena *arena = nullptr)
        : arena_(arena), wheel_(kWheelTicks)
    {
        // Floor for the drain buffer: small meshes peak at a few dozen
        // events per tick, and a warmup that tops out exactly at the
        // buffer's capacity would leave zero margin for steady-state
        // bursts one event larger. Growth past the floor doubles.
        batch_.reserve(128);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callable at an absolute tick.
     * @param when absolute tick; must not be in the past.
     * @param fn callable to execute; stored inline in the event node
     *        when it fits kInlineCallback bytes (heap otherwise).
     * @param prio same-tick ordering class.
     */
    template <typename Fn>
    void
    schedule(Tick when, Fn &&fn, Priority prio = Priority::Default)
    {
        BLITZ_ASSERT(when >= now_, "scheduling event in the past (",
                     when, " < ", now_, ")");
        const std::uint32_t slot = acquireSlot();
        emplaceCallback(*node(slot), std::forward<Fn>(fn));
        enqueue({when, packOrd(prio, nextSeq_++), slotRef(slot)});
        ++scheduledTotal_;
    }

    /** Schedule a callable @p delta ticks from now. */
    template <typename Fn>
    void
    scheduleIn(Tick delta, Fn &&fn, Priority prio = Priority::Default)
    {
        return schedule(now() + delta, std::forward<Fn>(fn), prio);
    }

    /** Number of events (armed timers included) still scheduled. */
    std::size_t pending() const { return entryCount_; }

    /** True when no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Cumulative events scheduled / executed since construction —
     * always-on observability counters (a plain increment on paths
     * that already write the slab, so they cost nothing measurable).
     * Each Timer::arm() counts as scheduled, so scheduled - executed =
     * pending + entries a disarm or re-arm dropped.
     */
    std::uint64_t totalScheduled() const { return scheduledTotal_; }
    std::uint64_t totalExecuted() const { return executedTotal_; }

    /**
     * Pending-entry high-water mark, sampled at batch refill (tick
     * granularity — a within-tick burst that drains before the next
     * refill is invisible, which is exactly the resolution the
     * introspection plane needs). Deterministic: a pure function of
     * the schedule, never of wall-clock.
     */
    std::size_t depthHighWater() const { return depthHighWater_; }

    /** Largest same-tick batch ever drained. */
    std::size_t batchHighWater() const { return batchHighWater_; }

    /**
     * Run events until the queue drains or @p limit is passed. No
     * event with when > limit ever executes.
     * @param limit stop before executing events scheduled after this tick.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /**
     * Execute the next event at or before @p limit.
     * @return false if no event exists within the horizon.
     */
    bool runOne(Tick limit = maxTick);

    /** Callback bytes stored inline in an event node. */
    static constexpr std::size_t kInlineCallback = 96;

  private:
    friend class Timer; ///< keys and places its entry

    /**
     * One slab slot. Trivial on purpose: the slab never runs
     * constructors or destructors wholesale — callback lifetime is
     * managed explicitly through invoke/destroy function pointers.
     * The sort key lives in the heap entry, not here, so the hot
     * sift loops never dereference the slab; with the 96-byte inline
     * callback buffer a node is exactly two cache lines.
     */
    struct Node
    {
        void (*invoke)(void *);
        void (*destroy)(void *); ///< null when nothing to destroy
        std::uint32_t nextFree;
        alignas(std::max_align_t) unsigned char buf[kInlineCallback];
    };

    /// HeapEntry::ref of a timer entry dropped in place (the drain
    /// skips it).
    static constexpr std::uintptr_t kDeadRef = 1;

    static std::uintptr_t
    slotRef(std::uint32_t slot)
    {
        return std::uintptr_t{slot} << 1;
    }
    static bool isTimerRef(std::uintptr_t ref) { return ref & 1; }
    static bool
    isLiveTimerRef(std::uintptr_t ref)
    {
        return (ref & 1) && ref != kDeadRef;
    }
    static Timer *
    timerOf(std::uintptr_t ref)
    {
        return reinterpret_cast<Timer *>(ref - 1);
    }

    static std::uint64_t
    packOrd(Priority prio, std::uint64_t seq)
    {
        const auto p = static_cast<std::int64_t>(prio);
        BLITZ_ASSERT(p >= 0 && p < 0x8000, "priority out of range");
        BLITZ_ASSERT(seq < (std::uint64_t{1} << 48),
                     "insertion sequence overflow");
        return (static_cast<std::uint64_t>(p) << 48) | seq;
    }

    static bool
    entryBefore(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.ord < b.ord;
    }

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::uint32_t kChunkNodes = 256;

    /**
     * Calendar window in ticks (power of two). Ticks in
     * [now, now + kWheelTicks) map to wheel buckets; later events park
     * in the far-heap until the window slides over them. 4096 ticks is
     * 5.1 us of simulated time — NoC hops (+1 tick) and most protocol
     * timers land in the wheel; only long backoff/audit timers pay the
     * (small) far-heap log cost.
     */
    static constexpr std::uint32_t kWheelTicks = 4096;
    static constexpr std::uint32_t kWheelWords = kWheelTicks / 64;

    /**
     * Fixed-size slice of a bucket's entry list. Chunks come from a
     * queue-global free pool, so storage high-water marks are shared
     * across all buckets — a burst tick draws from the same pool every
     * other tick warmed, keeping steady state allocation-free the way
     * the old single heap array was (per-bucket vectors would ratchet
     * 4096 independent capacities and realloc on every new local
     * maximum). Every occupied tick holds at least one chunk and most
     * hold one or two events, so a chunk is small: 15 entries and a
     * link, 368 B.
     */
    static constexpr std::uint32_t kEntriesPerChunk = 15;
    struct EntryChunk
    {
        HeapEntry e[kEntriesPerChunk];
        EntryChunk *next;
    };
    static constexpr std::uint32_t kEntryChunkBlock = 8;

    /**
     * One tick's pending events, appended in schedule order as a chunk
     * chain. `sorted` tracks whether appends arrived in ascending ord
     * — true for steady-state traffic (ord grows with insertion
     * sequence), so the drain skips ordering work entirely. Otherwise
     * (a cross-priority append) the bucket holds a few ascending runs,
     * which the drain restores with a natural merge, not a general
     * sort.
     */
    struct Bucket
    {
        EntryChunk *head = nullptr;
        EntryChunk *tail = nullptr;
        std::uint64_t lastOrd = 0;
        std::uint32_t tailCount = 0;
        std::uint32_t count = 0; ///< total entries in the chain
        bool sorted = true;
        bool timers = false; ///< holds timer entries
    };

    Node *
    node(std::uint32_t slot)
    {
        return &chunks_[slot / kChunkNodes][slot % kChunkNodes];
    }

    template <typename Fn>
    static void
    emplaceCallback(Node &n, Fn &&fn)
    {
        using F = std::decay_t<Fn>;
        static_assert(std::is_invocable_v<F &>,
                      "event callback must be invocable with no args");
        if constexpr (sizeof(F) <= kInlineCallback &&
                      alignof(F) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(n.buf)) F(std::forward<Fn>(fn));
            n.invoke = [](void *p) {
                (*std::launder(reinterpret_cast<F *>(p)))();
            };
            if constexpr (std::is_trivially_destructible_v<F>) {
                n.destroy = nullptr;
            } else {
                n.destroy = [](void *p) {
                    std::launder(reinterpret_cast<F *>(p))->~F();
                };
            }
        } else {
            // Oversized functor: one heap allocation, pointer parked
            // in the inline buffer.
            F *f = new F(std::forward<Fn>(fn));
            std::memcpy(n.buf, &f, sizeof f);
            n.invoke = [](void *p) {
                F *f;
                std::memcpy(&f, p, sizeof f);
                (*f)();
            };
            n.destroy = [](void *p) {
                F *f;
                std::memcpy(&f, p, sizeof f);
                delete f;
            };
        }
    }

    static void
    destroyCallback(Node &n)
    {
        if (n.destroy) {
            n.destroy(n.buf);
            n.destroy = nullptr;
        }
    }

    /** First un-executed batch entry with ord >= @p ord. */
    std::vector<HeapEntry>::iterator
    batchLowerBound(std::uint64_t ord)
    {
        return std::lower_bound(
            batch_.begin() + static_cast<std::ptrdiff_t>(batchIdx_),
            batch_.end(), ord,
            [](const HeapEntry &a, std::uint64_t o) { return a.ord < o; });
    }

    /**
     * Route a fully keyed entry to its destination: the live batch
     * (same-tick scheduling during that tick's drain — spliced into
     * the un-executed tail by ord so ordering is preserved), a wheel
     * bucket (within the window), or the far-heap. A timer's entry
     * (@p kTimer) records where it landed (Timer::Where).
     */
    template <bool kTimer = false>
    void
    enqueue(const HeapEntry &e)
    {
        ++entryCount_;
        if (e.when == now_ && batchIdx_ < batch_.size()) {
            batch_.insert(batchLowerBound(e.ord), e);
            if constexpr (kTimer)
                timerOf(e.ref)->where_ = Timer::Where::Batch;
            return;
        }
        if (e.when - now_ >= kWheelTicks) {
            far_.push_back(e);
            return siftUp(far_.size() - 1, e);
        }
        HeapEntry *cell = wheelAppend(e);
        if constexpr (kTimer)
            noteWheel(e, cell);
    }

    /** Append into the bucket of e.when (must be inside the window);
     *  the returned cell is stable until the bucket is drained. */
    HeapEntry *
    wheelAppend(const HeapEntry &e)
    {
        const std::uint32_t idx =
            static_cast<std::uint32_t>(e.when) & (kWheelTicks - 1);
        Bucket &b = wheel_[idx];
        if (!b.head) {
            occWords_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            occSummary_ |= std::uint64_t{1} << (idx >> 6);
            b.head = b.tail = takeChunk();
            b.tailCount = 0;
            b.count = 0;
            b.sorted = true;
            b.timers = false;
        } else {
            if (b.sorted && e.ord < b.lastOrd)
                b.sorted = false;
            if (b.tailCount == kEntriesPerChunk) {
                EntryChunk *c = takeChunk();
                b.tail->next = c;
                b.tail = c;
                b.tailCount = 0;
            }
        }
        b.lastOrd = e.ord;
        ++b.count;
        HeapEntry *cell = &b.tail->e[b.tailCount++];
        *cell = e;
        return cell;
    }

    /** Flag e's bucket as holding a timer cell (see refillBatch);
     *  a live timer records the cell. */
    void
    noteWheel(const HeapEntry &e, HeapEntry *cell)
    {
        wheel_[static_cast<std::uint32_t>(e.when) & (kWheelTicks - 1)]
            .timers = true;
        if (isLiveTimerRef(e.ref)) {
            timerOf(e.ref)->where_ = Timer::Where::Wheel;
            timerOf(e.ref)->cell_ = cell;
        }
    }

    /** Run one drained entry; false if it was a dropped timer's. */
    bool execute(std::uintptr_t ref);

    /** Pop an entry chunk from the free pool, or carve a fresh one
     *  from the newest block when the pool is dry. */
    EntryChunk *
    takeChunk()
    {
        EntryChunk *c = freeChunks_;
        if (c) {
            freeChunks_ = c->next;
        } else {
            if (carveLeft_ == 0)
                addEntryChunks();
            --carveLeft_;
            c = carve_++;
        }
        c->next = nullptr;
        return c;
    }

    void
    putChunk(EntryChunk *c)
    {
        c->next = freeChunks_;
        freeChunks_ = c;
    }

    /** Clear a drained bucket's occupancy bit. */
    void
    wheelClear(std::uint32_t idx)
    {
        occWords_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        if (!occWords_[idx >> 6])
            occSummary_ &= ~(std::uint64_t{1} << (idx >> 6));
    }

    /**
     * Earliest occupied wheel tick at or after now_ (maxTick when the
     * wheel is empty); @p idxOut receives its bucket index.
     */
    Tick wheelNext(std::uint32_t &idxOut) const;

    /**
     * Install the next drainable tick's events as the live batch:
     * migrates far events into the window, sorts the bucket if appends
     * arrived out of ord order, and refuses ticks past @p limit.
     * Returns false when no event remains within the horizon.
     */
    bool refillBatch(Tick limit);

    /**
     * Merge two ascending-ord runs into @p out, branch-free in the
     * inner loop: selecting the source via arithmetic keeps the
     * pipeline full on interleaved runs and lets independent run-pair
     * merges within one pass overlap.
     */
    static void mergeRuns(const HeapEntry *a, const HeapEntry *aEnd,
                          const HeapEntry *b, const HeapEntry *bEnd,
                          HeapEntry *out);

    /**
     * Restore ascending-ord order in batch_ by a natural bottom-up
     * merge over the ascending runs the appends formed: log2(runs)
     * branch-free passes, whose pair merges within a pass pipeline
     * independently.
     */
    void sortBatchByOrd();

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);
    void addChunk();
    void addEntryChunks();
    /** far_[i] = e, recording a timer entry's new position. */
    void farPlace(std::size_t i, const HeapEntry &e);
    void heapErase(std::size_t i);
    void siftUp(std::size_t i, HeapEntry e);
    void siftDown(std::size_t i);

    Arena *arena_;
    std::vector<Node *> chunks_;
    std::vector<Bucket> wheel_; ///< kWheelTicks per-tick buckets
    std::array<std::uint64_t, kWheelWords> occWords_{};
    std::uint64_t occSummary_ = 0; ///< nonzero occWords_ bitmap
    std::vector<HeapEntry> far_;   ///< 4-ary min-heap beyond the window
    std::vector<HeapEntry> batch_; ///< the tick being drained, by ord
    /// Scratch for the drain-time k-way run merge. A raw buffer, not a
    /// vector: entries are written front to back and copied out, so
    /// value-initializing the tail on every growth would be pure waste.
    std::unique_ptr<HeapEntry[]> mergeBuf_;
    std::size_t mergeCap_ = 0;             ///< mergeBuf_ capacity
    std::vector<std::uint32_t> runBounds_; ///< run boundaries, reused
    std::size_t batchIdx_ = 0;     ///< next batch entry to execute
    Tick batchTick_ = 0;           ///< tick of the live batch
    std::size_t entryCount_ = 0;   ///< wheel + far + batch remainder
    EntryChunk *freeChunks_ = nullptr; ///< bucket-storage free pool
    EntryChunk *carve_ = nullptr;      ///< newest block's unused tail
    std::uint32_t carveLeft_ = 0;      ///< chunks left at carve_
    std::vector<void *> entryBlocks_;  ///< heap-owned chunk blocks
    std::uint32_t entryChunksAllocated_ = 0;
    std::uint32_t slotCount_ = 0;
    std::uint32_t freeHead_ = kNoSlot;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t scheduledTotal_ = 0;
    std::uint64_t executedTotal_ = 0;
    std::size_t depthHighWater_ = 0; ///< entryCount_ max, per refill
    std::size_t batchHighWater_ = 0; ///< largest same-tick batch
    std::uint64_t arenaEpoch_ = 0; ///< arena epoch at first chunk
};

} // namespace blitz::sim

#endif // BLITZ_SIM_EVENT_QUEUE_HPP
