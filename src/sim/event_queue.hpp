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
 * Internals (see DESIGN.md "Scheduler internals" and ch. 9 "Mega-mesh
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
 *
 * Sharded mode (see DESIGN.md "BSP-sharded execution"): one queue can
 * act as the *anchor* of a sim::ShardGroup — existing call sites keep
 * scheduling through it, but events are routed to per-shard leaf
 * queues keyed by (tick, priority, origin locus, per-locus counter),
 * an ordering that is independent of how the mesh is partitioned. The
 * anchor itself then holds no events; runUntil() delegates to the
 * group's bulk-synchronous superstep loop.
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
class ShardGroup;

/**
 * Thread-local execution context of a sharded run: which leaf queue
 * the current thread is driving, which shard it is, and the *locus* —
 * the mesh node in whose context the executing event runs. Events
 * scheduled while a context is active inherit its locus as the origin
 * component of their sort key, so per-locus insertion counters stay
 * owned by exactly one thread at a time.
 */
struct ShardContext
{
    EventQueue *queue = nullptr;
    std::uint32_t shard = 0;
    std::uint32_t locus = 0;
    /**
     * True when every shard is parked (setup code, the serial lane of
     * a superstep): scheduling may then insert directly into any leaf
     * instead of going through a mailbox.
     */
    bool serial = false;
};

/**
 * The calling thread's active shard context (null outside a phase).
 * Inline on purpose: the sharded hot path consults it several times
 * per event (scheduling, pool selection, now()), and an out-of-line
 * definition would turn each of those into a function call instead of
 * a single TLS-relative load. The pointee is trivially destructible,
 * so the thread_local needs no init guard.
 */
inline ShardContext *&
tlsShardContext()
{
    thread_local ShardContext *ctx = nullptr;
    return ctx;
}

/**
 * Everything an anchor queue needs to route scheduling calls into a
 * ShardGroup, expressed as plain pointers so the hot templates in this
 * header never need the group's definition (see sim/shard.hpp).
 */
struct ShardBinding
{
    ShardGroup *group = nullptr;
    /** shardCount leaf queues followed by the serial (global) lane. */
    EventQueue *const *leaves = nullptr;
    std::uint32_t shardCount = 0;
    /** Owning shard of each mesh node (size nodeCount). */
    const std::uint32_t *shardOfNode = nullptr;
    std::uint32_t nodeCount = 0;
    /** Per-locus insertion counters; index nodeCount = the serial lane. */
    std::uint64_t *locusCounters = nullptr;
    /** Park a cross-shard event in the (src, dst) mailbox. */
    void (*crossPush)(ShardGroup *, std::uint32_t srcShard,
                      std::uint32_t dstShard, Tick when,
                      std::uint64_t ord, std::uint32_t locus,
                      void (*invoke)(void *), const void *payload,
                      std::size_t bytes) = nullptr;
    /** The group's bulk-synchronous superstep loop. */
    std::uint64_t (*runUntil)(ShardGroup *, Tick limit) = nullptr;
};

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
 * (same leaf, same insertion counter) and drop the previous one;
 * disarm() drops it and consumes no key. A firing disarms the timer
 * before the callback runs, so the callback may re-arm it. The
 * callback lives in the timer and the entry points back at it, so a
 * re-arm creates no callable (DESIGN.md §4d, §7).
 */
class Timer
{
  public:
    /** @p fn: small trivially copyable callable, typically [this]. */
    template <typename Fn>
    Timer(EventQueue &eq, Fn fn, Priority prio = Priority::Default)
        : eq_(&eq), prio_(prio)
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
        if (q_)
            detach();
    }
    bool armed() const { return q_ != nullptr; }

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

    EventQueue *eq_;          ///< queue or sharded anchor armed on
    EventQueue *q_ = nullptr; ///< queue/leaf holding the entry
    std::uint64_t ord_ = 0;   ///< the entry's key
    HeapEntry *cell_ = nullptr;
    std::size_t pos_ = 0;
    void (*invoke_)(void *) = nullptr;
    std::uint32_t locus_ = 0; ///< execution locus (sharded only)
    Priority prio_;
    Where where_ = Where::Batch;
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

    /**
     * Current simulated time. On a sharded anchor this is the driving
     * leaf's clock inside a phase and the group's high-water mark
     * between supersteps.
     */
    Tick
    now() const
    {
        if (bind_.group) {
            if (const ShardContext *c = tlsShardContext())
                return c->queue->now_;
        }
        return now_;
    }

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
        if (bind_.group)
            return routeSchedule(when, std::forward<Fn>(fn), prio);
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

    /**
     * Schedule a callable that executes *in the context of* mesh node
     * @p node — identical to schedule() on a plain queue, but on a
     * sharded anchor the event is placed in the node's owning shard
     * (through the epoch mailbox when the target is another shard mid-
     * phase) and runs with its locus set to @p node. All NoC hop and
     * delivery events route through here; a cross-shard @p when must
     * respect the group's lookahead horizon (strictly after the
     * current epoch tick).
     */
    template <typename Fn>
    void
    scheduleAtNode(std::uint32_t node, Tick when, Fn &&fn,
                   Priority prio = Priority::Default)
    {
        if (!bind_.group)
            return schedule(when, std::forward<Fn>(fn), prio);
        ShardContext *c = tlsShardContext();
        BLITZ_ASSERT(node < bind_.nodeCount,
                     "scheduleAtNode target out of range");
        // Origin = the executing locus; setup-time calls charge the
        // target node's own counter (there is no executing event).
        const std::uint32_t origin = c ? c->locus : node;
        const std::uint64_t ord = packOrdSharded(
            prio, origin, bind_.locusCounters[origin]++);
        const std::uint32_t target = bind_.shardOfNode[node];
        if (!c || c->serial || target == c->shard)
            return bind_.leaves[target]->scheduleKeyed(
                when, ord, node, std::forward<Fn>(fn));
        using F = std::decay_t<Fn>;
        static_assert(std::is_trivially_copyable_v<F> &&
                          sizeof(F) <= kInlineCallback &&
                          alignof(F) <= alignof(std::max_align_t),
                      "cross-shard events must be small trivially "
                      "copyable callables");
        F f(std::forward<Fn>(fn));
        bind_.crossPush(
            bind_.group, c->shard, target, when, ord, node,
            [](void *p) {
                (*std::launder(reinterpret_cast<F *>(p)))();
            },
            &f, sizeof f);
    }

    /**
     * Leaf-queue insertion with a precomputed sharded sort key; used
     * by the anchor's routing and the group's mailbox drain. The
     * locus is stamped on the node so execution can restore it.
     */
    template <typename Fn>
    void
    scheduleKeyed(Tick when, std::uint64_t ord, std::uint32_t locus,
                  Fn &&fn)
    {
        BLITZ_ASSERT(when >= now_, "scheduling event in the past (",
                     when, " < ", now_, ")");
        const std::uint32_t slot = acquireSlot();
        Node &n = *node(slot);
        n.locus = locus;
        emplaceCallback(n, std::forward<Fn>(fn));
        enqueue({when, ord, slotRef(slot)});
        ++scheduledTotal_;
    }

    /** Number of events (armed timers included) still scheduled. */
    std::size_t
    pending() const
    {
        if (!bind_.group)
            return entryCount_;
        std::size_t total = 0;
        for (std::uint32_t s = 0; s <= bind_.shardCount; ++s)
            total += bind_.leaves[s]->entryCount_;
        return total;
    }

    /** True when no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Cumulative events scheduled / executed since construction —
     * always-on observability counters (a plain increment on paths
     * that already write the slab, so they cost nothing measurable).
     * Each Timer::arm() counts as scheduled, so scheduled - executed =
     * pending + entries a disarm or re-arm dropped. Summed over the
     * leaves on a sharded anchor (read only between phases or from the
     * serial lane).
     */
    std::uint64_t
    totalScheduled() const
    {
        if (!bind_.group)
            return scheduledTotal_;
        std::uint64_t total = 0;
        for (std::uint32_t s = 0; s <= bind_.shardCount; ++s)
            total += bind_.leaves[s]->scheduledTotal_;
        return total;
    }
    std::uint64_t
    totalExecuted() const
    {
        if (!bind_.group)
            return executedTotal_;
        std::uint64_t total = 0;
        for (std::uint32_t s = 0; s <= bind_.shardCount; ++s)
            total += bind_.leaves[s]->executedTotal_;
        return total;
    }

    /**
     * Pending-entry high-water mark, sampled at batch refill (tick
     * granularity — a within-tick burst that drains before the next
     * refill is invisible, which is exactly the resolution the
     * introspection plane needs). Deterministic: a pure function of
     * the schedule, never of wall-clock. Max over leaves on a sharded
     * anchor.
     */
    std::size_t
    depthHighWater() const
    {
        if (!bind_.group)
            return depthHighWater_;
        std::size_t hw = 0;
        for (std::uint32_t s = 0; s <= bind_.shardCount; ++s)
            hw = std::max(hw, bind_.leaves[s]->depthHighWater_);
        return hw;
    }

    /** Largest same-tick batch ever drained (max over leaves). */
    std::size_t
    batchHighWater() const
    {
        if (!bind_.group)
            return batchHighWater_;
        std::size_t hw = 0;
        for (std::uint32_t s = 0; s <= bind_.shardCount; ++s)
            hw = std::max(hw, bind_.leaves[s]->batchHighWater_);
        return hw;
    }

    /**
     * Turn this queue into the anchor of a shard group (or detach it
     * again when @p b.group is null). The anchor must be empty: its
     * own heap never holds events while bound — every scheduling call
     * routes into the group's leaf queues.
     */
    void
    bindShardGroup(const ShardBinding &b)
    {
        BLITZ_ASSERT(entryCount_ == 0,
                     "anchor queue must be empty when (un)binding");
        bind_ = b;
    }

    /** The active shard binding (group is null on a plain queue). */
    const ShardBinding &binding() const { return bind_; }

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
    friend class ShardGroup; ///< drives the leaf queues directly
    friend class LocusScope; ///< installs setup-time shard contexts
    friend class Timer;      ///< keys and places its entry

    /**
     * One slab slot. Trivial on purpose: the slab never runs
     * constructors or destructors wholesale — callback lifetime is
     * managed explicitly through invoke/destroy function pointers.
     * The sort key lives in the heap entry, not here, so the hot
     * sift loops never dereference the slab; with the 96-byte inline
     * callback buffer a node is exactly two cache lines (the locus
     * stamp rides in what used to be padding before the buffer).
     */
    struct Node
    {
        void (*invoke)(void *);
        void (*destroy)(void *); ///< null when nothing to destroy
        std::uint32_t nextFree;
        std::uint32_t locus; ///< execution locus (sharded mode only)
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

    /**
     * Sharded same-tick sort key: (priority, origin locus, per-locus
     * counter) packed into the same 64-bit ord word the legacy
     * (priority, seq) key uses — 8 bits of priority over a 20-bit
     * locus (1M mesh nodes + the serial lane) over a 36-bit counter.
     * The key is a pure function of *which mesh node scheduled the
     * event and how many events that node had scheduled before*, so
     * it is identical for every shard count — the property the golden
     * digests pin. Origin counters are only ever bumped by the thread
     * executing at that locus, so they need no synchronization.
     */
    /// Bits of the sharded ord key spent on the scheduling locus.
    static constexpr unsigned kLocusBits = 20;

    // The mesh-size contract: every mesh node plus the serial lane's
    // locus (nodeCount, one past the mesh) must fit the locus field.
    static_assert(kMaxMeshNodes + 1 <= (std::size_t{1} << kLocusBits),
                  "kMaxMeshNodes no longer fits the sharded ord key's "
                  "locus field");

    static std::uint64_t
    packOrdSharded(Priority prio, std::uint32_t locus,
                   std::uint64_t counter)
    {
        const auto p = static_cast<std::int64_t>(prio);
        BLITZ_ASSERT(p >= 0 && p < 0x100, "priority out of range");
        BLITZ_ASSERT(locus < (1u << kLocusBits), "locus out of range");
        BLITZ_ASSERT(counter < (std::uint64_t{1} << 36),
                     "per-locus counter overflow");
        return (static_cast<std::uint64_t>(p) << 56) |
               (static_cast<std::uint64_t>(locus) << 36) | counter;
    }

    /**
     * schedule() tail for a bound anchor: events from an executing
     * shard context stay in that context's leaf at its locus; events
     * from plain (setup / observer) code with no context go to the
     * serial lane, which runs between supersteps in deterministic
     * order — where periodic audits and stat samplers belong.
     */
    template <typename Fn>
    void
    routeSchedule(Tick when, Fn &&fn, Priority prio)
    {
        ShardContext *c = tlsShardContext();
        const std::uint32_t locus = c ? c->locus : bind_.nodeCount;
        EventQueue *leaf = c ? c->queue
                             : bind_.leaves[bind_.shardCount];
        return leaf->scheduleKeyed(
            when,
            packOrdSharded(prio, locus, bind_.locusCounters[locus]++),
            locus, std::forward<Fn>(fn));
    }

    /**
     * Type-erased variant of scheduleKeyed() for mailbox entries whose
     * payload was captured as raw (trivially copyable) bytes.
     */
    void scheduleRaw(Tick when, std::uint64_t ord, std::uint32_t locus,
                     void (*invoke)(void *), const void *payload,
                     std::size_t bytes);

    /** Earliest scheduled tick (maxTick when the leaf is empty). */
    Tick nextTick() const;

    /**
     * Move a drained leaf's clock to the end of a phase so relative
     * scheduling after the phase sees the same "time passed" semantics
     * runUntil() provides on a plain queue.
     */
    void
    advanceTo(Tick limit)
    {
        if (limit != maxTick && limit > now_)
            now_ = limit;
    }

    /** Install the context runOne() stamps the executing locus into. */
    void setContext(ShardContext *c) { ctx_ = c; }

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
     * — true for steady-state legacy-key traffic (ord grows with
     * insertion sequence), so the drain skips ordering work entirely.
     * Sharded (prio, locus, counter) keys instead arrive as a few
     * ascending *runs* (the locus component restarts once per
     * scheduling pass within a tick, and ejection-overflow buckets
     * collect one run per source tick); the drain handles those with
     * a natural merge over the detected runs, not a general sort.
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
     * inner loop. The runs carry near-random ord interleavings
     * (opposite-direction hop packets), so a branchy merge mispredicts
     * about every other entry; selecting the source via arithmetic
     * keeps the pipeline full and lets independent run-pair merges
     * within one pass overlap.
     */
    static void mergeRuns(const HeapEntry *a, const HeapEntry *aEnd,
                          const HeapEntry *b, const HeapEntry *bEnd,
                          HeapEntry *out);

    /**
     * Restore ascending-ord order in batch_ by a natural bottom-up
     * merge over the ascending runs the appends formed. Sharded-key
     * buckets concatenate ~30 short runs in mesh steady state
     * (same-tick hops execute in origin-locus order but append keyed
     * by the next router, so opposite-direction packets interleave
     * descents); log2(runs) branch-free passes beat both std::sort and
     * a one-pass k-way tournament tree here, the latter because its
     * per-entry replay is a serial chain of dependent loads while the
     * pair merges within a pass pipeline independently.
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
    ShardBinding bind_{};          ///< anchor routing (group == null
                                   ///< on plain queues and leaves)
    ShardContext *ctx_ = nullptr;  ///< leaf-side execution context
};

/**
 * RAII shard context for setup-time code that schedules *on behalf of*
 * a specific mesh node while no event is executing (startAll, audit
 * repair actions): within the scope, scheduling through the anchor
 * lands in @p node's owning leaf with @p node as the origin locus, so
 * the resulting sort keys match what the node itself would have
 * produced. No-op when the queue is not a sharded anchor.
 */
class LocusScope
{
  public:
    LocusScope(EventQueue &anchor, std::uint32_t node)
        : saved_(tlsShardContext())
    {
        const ShardBinding &b = anchor.bind_;
        if (!b.group)
            return;
        BLITZ_ASSERT(!saved_ || saved_->serial,
                     "LocusScope inside a parallel phase");
        ctx_.queue = b.leaves[b.shardOfNode[node]];
        ctx_.shard = b.shardOfNode[node];
        ctx_.locus = node;
        ctx_.serial = true;
        // The borrowed leaf may have idled for many supersteps, so its
        // clock can lag the caller's present; lift it before lending
        // the context out, or relative scheduling (hop latencies, timer
        // periods) would be anchored at the leaf's last active tick and
        // land in other leaves' past. Safe: an idle leaf has no pending
        // event at or before the present — it would have run this
        // superstep otherwise.
        ctx_.queue->advanceTo(saved_ ? saved_->queue->now_
                                     : anchor.now_);
        tlsShardContext() = &ctx_;
    }
    ~LocusScope() { tlsShardContext() = saved_; }
    LocusScope(const LocusScope &) = delete;
    LocusScope &operator=(const LocusScope &) = delete;

  private:
    ShardContext *saved_;
    ShardContext ctx_{};
};

} // namespace blitz::sim

#endif // BLITZ_SIM_EVENT_QUEUE_HPP
