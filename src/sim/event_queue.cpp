#include "event_queue.hpp"

#include <cstring>

namespace blitz::sim {

EventQueue::~EventQueue()
{
    // Detach the timers still queued here: their destructors must not
    // reach back into a dead queue.
    const auto detach = [](const HeapEntry &e) {
        if (isLiveTimerRef(e.ref))
            timerOf(e.ref)->q_ = nullptr;
    };
    std::for_each(batch_.begin() + static_cast<std::ptrdiff_t>(batchIdx_),
                  batch_.end(), detach);
    for (const Bucket &b : wheel_)
        for (const EntryChunk *c = b.head; c; c = c->next)
            std::for_each(c->e, c->e + (c == b.tail ? b.tailCount
                                                    : kEntriesPerChunk),
                          detach);
    std::for_each(far_.begin(), far_.end(), detach);
    // Destroy the callbacks of events that never ran; the slab itself is either heap chunks we own or arena memory we don't.
    for (std::uint32_t slot = 0; slot < slotCount_; ++slot)
        destroyCallback(*node(slot));
    if (!arena_) {
        for (Node *chunk : chunks_)
            ::operator delete(chunk, std::align_val_t{alignof(Node)});
        for (void *block : entryBlocks_)
            ::operator delete(block);
    }
}

void
EventQueue::addChunk()
{
    if (arena_) {
        // Use-after-reset tripwire: arena-backed slab chunks become
        // dangling the moment the arena resets, so growing the slab
        // after a reset means the queue outlived its backing store.
        if (chunks_.empty() && entryChunksAllocated_ == 0)
            arenaEpoch_ = arena_->epoch();
        else
            BLITZ_ASSERT(arena_->epoch() == arenaEpoch_,
                         "event slab grown after its arena was reset");
    }
    void *mem =
        arena_ ? arena_->allocate(kChunkNodes * sizeof(Node),
                                  alignof(Node))
               : ::operator new(kChunkNodes * sizeof(Node),
                                std::align_val_t{alignof(Node)});
    Node *nodes = static_cast<Node *>(mem);
    const std::uint32_t base = slotCount_;
    for (std::uint32_t i = 0; i < kChunkNodes; ++i) {
        Node &n = *::new (static_cast<void *>(nodes + i)) Node;
        n.destroy = nullptr;
        n.nextFree =
            i + 1 < kChunkNodes ? base + i + 1 : freeHead_;
    }
    chunks_.push_back(nodes);
    slotCount_ += kChunkNodes;
    freeHead_ = base;
}

void
EventQueue::addEntryChunks()
{
    if (arena_) {
        if (chunks_.empty() && entryChunksAllocated_ == 0)
            arenaEpoch_ = arena_->epoch();
        else
            BLITZ_ASSERT(arena_->epoch() == arenaEpoch_,
                         "bucket pool grown after its arena was reset");
    }
    // Double the pool each growth: chunk demand tracks the number of
    // simultaneously occupied buckets, whose peak has high variance
    // around its mean — geometric growth absorbs post-warmup creep the
    // same way the old heap array's capacity doubling did.
    const std::uint32_t n =
        std::max(kEntryChunkBlock, entryChunksAllocated_);
    void *mem = arena_ ? arena_->allocate(n * sizeof(EntryChunk),
                                          alignof(EntryChunk))
                       : ::operator new(n * sizeof(EntryChunk));
    // takeChunk carves the block one chunk at a time, only once the
    // free list is dry: a chunk no bucket ever needed is never
    // written, so its pages never become resident.
    carve_ = static_cast<EntryChunk *>(mem);
    carveLeft_ = n;
    entryChunksAllocated_ += n;
    if (!arena_)
        entryBlocks_.push_back(mem);
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (freeHead_ == kNoSlot)
        addChunk();
    const std::uint32_t slot = freeHead_;
    freeHead_ = node(slot)->nextFree;
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Node &n = *node(slot);
    destroyCallback(n);
    n.nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::farPlace(std::size_t i, const HeapEntry &e)
{
    far_[i] = e;
    if (isLiveTimerRef(e.ref)) {
        Timer *t = timerOf(e.ref);
        t->where_ = Timer::Where::Far;
        t->pos_ = i;
    }
}

void
EventQueue::siftUp(std::size_t i, HeapEntry e)
{
    // Hole-based sift-up: the entry is held in a register and parents
    // slide down until its position is found (one store per level
    // instead of a three-store swap).
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!entryBefore(e, far_[parent]))
            break;
        farPlace(i, far_[parent]);
        i = parent;
    }
    farPlace(i, e);
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = far_.size();
    const HeapEntry e = far_[i];
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (entryBefore(far_[c], far_[best]))
                best = c;
        }
        if (!entryBefore(far_[best], e))
            break;
        farPlace(i, far_[best]);
        i = best;
    }
    farPlace(i, e);
}

void
EventQueue::heapErase(std::size_t i)
{
    const HeapEntry last = far_.back();
    far_.pop_back();
    if (i == far_.size())
        return;
    if (i > 0 && entryBefore(last, far_[(i - 1) / 4])) {
        siftUp(i, last);
    } else {
        far_[i] = last;
        siftDown(i);
    }
}

Tick
EventQueue::wheelNext(std::uint32_t &idxOut) const
{
    if (!occSummary_)
        return maxTick;
    // Rotated two-level bitmap scan starting at now_'s bucket: every
    // occupied bucket holds one tick in [now_, now_ + kWheelTicks), so
    // ring order from the cursor is tick order.
    const std::uint32_t start =
        static_cast<std::uint32_t>(now_) & (kWheelTicks - 1);
    const std::uint32_t w0 = start >> 6;
    const std::uint32_t b0 = start & 63;
    std::uint32_t idx;
    if (const std::uint64_t head = occWords_[w0] & (~std::uint64_t{0}
                                                    << b0)) {
        idx = (w0 << 6) +
              static_cast<std::uint32_t>(std::countr_zero(head));
    } else {
        const std::uint64_t hiMask =
            w0 + 1 >= kWheelWords ? 0
                                  : ~std::uint64_t{0} << (w0 + 1);
        const std::uint64_t hi = occSummary_ & hiMask;
        const std::uint64_t lo =
            occSummary_ & ((std::uint64_t{1} << w0) - 1);
        if (const std::uint64_t pick = hi ? hi : lo) {
            const auto w = static_cast<std::uint32_t>(
                std::countr_zero(pick));
            idx = (w << 6) + static_cast<std::uint32_t>(
                                 std::countr_zero(occWords_[w]));
        } else {
            const std::uint64_t tail =
                occWords_[w0] & ((std::uint64_t{1} << b0) - 1);
            if (!tail)
                return maxTick;
            idx = (w0 << 6) + static_cast<std::uint32_t>(
                                  std::countr_zero(tail));
        }
    }
    idxOut = idx;
    return now_ + ((idx - start) & (kWheelTicks - 1));
}

Tick
EventQueue::nextTick() const
{
    Tick t = batchIdx_ < batch_.size() ? batchTick_ : maxTick;
    std::uint32_t idx = 0;
    const Tick w = wheelNext(idx);
    if (w < t)
        t = w;
    if (!far_.empty() && far_.front().when < t)
        t = far_.front().when;
    return t;
}

bool
EventQueue::refillBatch(Tick limit)
{
    batch_.clear();
    batchIdx_ = 0;
    for (;;) {
        // Slide far events that now fall inside the window into their
        // buckets (their keys keep them in exact order at drain time).
        while (!far_.empty() && far_.front().when - now_ < kWheelTicks) {
            const HeapEntry e = far_.front();
            heapErase(0);
            HeapEntry *cell = wheelAppend(e);
            if (isTimerRef(e.ref))
                noteWheel(e, cell);
        }
        std::uint32_t idx = 0;
        const Tick t = wheelNext(idx);
        if (t != maxTick) {
            // Test the horizon before touching the bucket: a probe past
            // the limit (every superstep of a sharded run makes one)
            // leaves it as it is.
            if (t > limit)
                return false;
            Bucket &b = wheel_[idx];
            // Gather the chunk chain into the shared batch buffer —
            // one queue-global capacity high-water mark, like the old
            // heap array, so a burst tick reuses capacity every other
            // tick already paid for — and recycle the chunks. Grow
            // geometrically: insert() into a cleared vector resizes to
            // the exact requirement, which would turn every new
            // per-tick burst record into a realloc.
            if (b.count > batch_.capacity())
                batch_.reserve(std::max(batch_.capacity() * 2,
                                        std::size_t{b.count}));
            // Keep the merge scratch in lockstep with batch_ capacity
            // so a drain that needs sorting never allocates. Sorting
            // is rare on (prio, seq) keys — only a cross-priority
            // append breaks run order — so sizing the scratch lazily
            // inside the sort would push its first allocation past
            // any warmup into the audited steady state.
            if (mergeCap_ < batch_.capacity()) {
                mergeCap_ = batch_.capacity();
                mergeBuf_ = std::make_unique<HeapEntry[]>(mergeCap_);
            }
            for (EntryChunk *c = b.head; c;) {
                const std::uint32_t n =
                    c == b.tail ? b.tailCount : kEntriesPerChunk;
                batch_.insert(batch_.end(), c->e, c->e + n);
                EntryChunk *nx = c->next;
                putChunk(c);
                c = nx;
            }
            const bool wasSorted = b.sorted;
            const bool hadTimers = b.timers;
            b.head = b.tail = nullptr;
            b.tailCount = 0;
            b.count = 0;
            b.sorted = true;
            b.timers = false;
            wheelClear(idx);
            if (hadTimers) {
                // Drop removed timer cells; note where live ones went.
                std::size_t w = 0;
                for (const HeapEntry &e : batch_) {
                    if (isLiveTimerRef(e.ref)) {
                        timerOf(e.ref)->where_ = Timer::Where::Batch;
                    } else if (isTimerRef(e.ref)) {
                        continue;
                    }
                    batch_[w++] = e;
                }
                batch_.resize(w);
                // Only dropped timer cells: time does not move to t.
                if (batch_.empty())
                    continue;
            }
            if (!wasSorted)
                sortBatchByOrd();
            BLITZ_ASSERT(t >= now_, "event queue went backwards");
            now_ = t;
            batchTick_ = t;
            // Introspection high-water marks, maintained here (once
            // per drained tick) instead of on the schedule path so the
            // hot enqueue stays untouched. entryCount_ still includes
            // this whole batch at this point.
            if (entryCount_ > depthHighWater_)
                depthHighWater_ = entryCount_;
            if (batch_.size() > batchHighWater_)
                batchHighWater_ = batch_.size();
            return true;
        }
        if (far_.empty() || far_.front().when > limit)
            return false;
        // The whole window is empty and the far front is within the
        // horizon: jump the window to it; the next iteration migrates
        // and drains it.
        now_ = far_.front().when;
    }
}

void
EventQueue::mergeRuns(const HeapEntry *a, const HeapEntry *aEnd,
                      const HeapEntry *b, const HeapEntry *bEnd,
                      HeapEntry *out)
{
    while (a != aEnd && b != bEnd) {
        const bool takeA = a->ord <= b->ord;
        const HeapEntry *s = takeA ? a : b;
        *out++ = *s;
        a += takeA;
        b += 1 - static_cast<int>(takeA);
    }
    out = std::copy(a, aEnd, out);
    std::copy(b, bEnd, out);
}

void
EventQueue::sortBatchByOrd()
{
    const std::size_t n = batch_.size();
    // Detect the ascending runs the appends formed. One linear scan
    // over contiguous memory — trivial next to the merging it saves.
    runBounds_.clear();
    runBounds_.push_back(0);
    for (std::size_t i = 1; i < n; ++i)
        if (batch_[i].ord < batch_[i - 1].ord)
            runBounds_.push_back(static_cast<std::uint32_t>(i));
    runBounds_.push_back(static_cast<std::uint32_t>(n));
    if (mergeCap_ < n) {
        mergeCap_ = std::max(mergeCap_ * 2, n);
        mergeBuf_ = std::make_unique<HeapEntry[]>(mergeCap_);
    }
    // Bottom-up passes: merge adjacent run pairs, ping-ponging between
    // batch_ and the scratch buffer, halving the run count each pass.
    // The pair merges within one pass are independent, so they overlap
    // in the pipeline — a one-pass k-way tournament tree was measured
    // slower here because its per-entry replay is one serial chain of
    // dependent loads.
    HeapEntry *src = batch_.data();
    HeapEntry *dst = mergeBuf_.get();
    while (runBounds_.size() > 2) {
        std::size_t w = 0;
        std::size_t r = 0;
        for (; r + 2 < runBounds_.size(); r += 2) {
            mergeRuns(src + runBounds_[r], src + runBounds_[r + 1],
                      src + runBounds_[r + 1], src + runBounds_[r + 2],
                      dst + runBounds_[r]);
            runBounds_[w++] = runBounds_[r];
        }
        if (r + 2 == runBounds_.size()) {
            // Odd run out: carry it into this pass's buffer unmerged.
            std::memcpy(dst + runBounds_[r], src + runBounds_[r],
                        (runBounds_[r + 1] - runBounds_[r]) *
                            sizeof(HeapEntry));
            runBounds_[w++] = runBounds_[r];
        }
        runBounds_[w++] = static_cast<std::uint32_t>(n);
        runBounds_.resize(w);
        std::swap(src, dst);
    }
    if (src != batch_.data())
        std::memcpy(batch_.data(), src, n * sizeof(HeapEntry));
}

inline bool
EventQueue::execute(std::uintptr_t ref)
{
    if (isTimerRef(ref)) {
        if (!isLiveTimerRef(ref))
            return false; // dropped in the live batch
        Timer *t = timerOf(ref);
        --entryCount_;
        ++executedTotal_;
        t->q_ = nullptr; // disarmed first: the callback may re-arm it
        if (ctx_)
            ctx_->locus = t->locus_;
        t->invoke_(t->buf_);
        return true;
    }
    const auto slot = static_cast<std::uint32_t>(ref >> 1);
    Node *n = node(slot);
    --entryCount_;
    struct SlotGuard
    {
        EventQueue *eq;
        std::uint32_t slot;
        ~SlotGuard() { eq->releaseSlot(slot); }
    } guard{this, slot};
    ++executedTotal_;
    if (ctx_)
        ctx_->locus = n->locus;
    n->invoke(n->buf);
    return true;
}

bool
EventQueue::runOne(Tick limit)
{
    BLITZ_ASSERT(!bind_.group,
                 "runOne() is not supported on a sharded anchor — "
                 "use runUntil()");
    for (;;) {
        while (batchIdx_ < batch_.size()) {
            if (batchTick_ > limit)
                return false;
            if (execute(batch_[batchIdx_++].ref))
                return true;
        }
        if (!refillBatch(limit))
            return false;
    }
}

void
EventQueue::scheduleRaw(Tick when, std::uint64_t ord,
                        std::uint32_t locus, void (*invoke)(void *),
                        const void *payload, std::size_t bytes)
{
    BLITZ_ASSERT(when >= now_, "scheduling event in the past (", when,
                 " < ", now_, ")");
    BLITZ_ASSERT(bytes <= kInlineCallback,
                 "raw event payload exceeds the inline buffer");
    const std::uint32_t slot = acquireSlot();
    Node &n = *node(slot);
    n.locus = locus;
    n.invoke = invoke;
    n.destroy = nullptr; // mailbox payloads are trivially copyable
    std::memcpy(n.buf, payload, bytes);
    enqueue({when, ord, slotRef(slot)});
    ++scheduledTotal_;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    // A sharded anchor holds no events itself: delegate to the group's
    // bulk-synchronous superstep loop, then mirror the leaves' clock.
    if (bind_.group) {
        const std::uint64_t executed = bind_.runUntil(bind_.group,
                                                      limit);
        for (std::uint32_t s = 0; s <= bind_.shardCount; ++s)
            if (bind_.leaves[s]->now_ > now_)
                now_ = bind_.leaves[s]->now_;
        return executed;
    }
    // Drain whole tick batches in a tight loop; refillBatch() enforces
    // the horizon.
    std::uint64_t executed = 0;
    for (;;) {
        while (batchIdx_ < batch_.size()) {
            if (batchTick_ > limit)
                goto done;
            executed += execute(batch_[batchIdx_++].ref);
        }
        if (!refillBatch(limit))
            break;
    }
done:
    // Advance time to the limit when asked to run to a horizon so that
    // repeated runUntil() calls observe monotonically increasing now().
    if (limit != maxTick && limit > now_)
        now_ = limit;
    return executed;
}

void
Timer::arm(Tick when)
{
    // The leaf and key schedule() would give the same call.
    const ShardBinding &b = eq_->bind_;
    const ShardContext *c = b.group ? tlsShardContext() : nullptr;
    const std::uint32_t locus = c ? c->locus : b.nodeCount;
    EventQueue *leaf = !b.group ? eq_
                       : c      ? c->queue
                                : b.leaves[b.shardCount];
    BLITZ_ASSERT(when >= leaf->now_, "arming a timer in the past (",
                 when, " < ", leaf->now_, ")");
    disarm();
    ord_ = b.group ? EventQueue::packOrdSharded(
                         prio_, locus, b.locusCounters[locus]++)
                   : EventQueue::packOrd(prio_, eq_->nextSeq_++);
    locus_ = locus;
    q_ = leaf;
    leaf->enqueue<true>({when, ord_, ref()});
    ++leaf->scheduledTotal_;
}

void
Timer::armIn(Tick delta)
{
    arm(eq_->now() + delta);
}

void
Timer::detach()
{
    EventQueue &q = *q_;
    q_ = nullptr;
    // The entry's leaf must be parked or driven by this thread (DESIGN
    // §7): inside a parallel phase that is the thread's own leaf only.
    const ShardContext *c = eq_->bind_.group ? tlsShardContext() : nullptr;
    BLITZ_ASSERT(!c || c->serial || &q == c->queue, "timer moved by shard ",
                 c->shard, " out of a leaf it does not drive: a parallel "
                 "phase may move only its own leaf's timers");
    switch (where_) {
      case Where::Batch:
        q.batchLowerBound(ord_)->ref = EventQueue::kDeadRef;
        break;
      case Where::Wheel:
        cell_->ref = EventQueue::kDeadRef;
        break;
      case Where::Far:
        q.heapErase(pos_);
        break;
    }
    --q.entryCount_;
}

} // namespace blitz::sim
