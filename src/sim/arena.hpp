/**
 * @file
 * Chunked bump allocator backing the event kernel's slabs.
 *
 * Sweep replications churn through millions of short-lived event and
 * packet nodes; an arena turns that churn into pointer bumps inside
 * recycled chunks. reset() retires every allocation at once but keeps
 * the chunks, so the next replication on the same worker thread runs
 * allocation-free from the start. The sweep harness resets the
 * per-thread arena between replications (see sweep::runSweep).
 *
 * Allocations are never individually freed, so the arena only suits
 * objects whose lifetime matches a replication (event-slab chunks,
 * packet pools) — owners must not hand arena memory to anything that
 * outlives the trial.
 */

#ifndef BLITZ_SIM_ARENA_HPP
#define BLITZ_SIM_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace blitz::sim {

/** Bump allocator over a list of recycled chunks. Not thread-safe. */
class Arena
{
  public:
    /** @param chunkBytes granularity of the backing chunks. */
    explicit Arena(std::size_t chunkBytes = 64 * 1024)
        : chunkBytes_(chunkBytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p bytes with @p align alignment. Never returns
     * nullptr; oversized requests get a dedicated chunk.
     */
    void *allocate(std::size_t bytes, std::size_t align);

    /** Typed convenience: uninitialized storage for @p n objects. */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /**
     * Retire every allocation but keep the chunks for reuse. All
     * pointers handed out so far become invalid.
     */
    void
    reset()
    {
        cur_ = 0;
        off_ = 0;
        used_ = 0;
        ++epoch_;
    }

    /**
     * Reset generation — bumped every reset(). Owners of arena-backed
     * pools stamp the epoch at allocation time and assert it unchanged
     * on later use, turning silent use-after-reset corruption into an
     * immediate failure (see EventQueue::addChunk, noc pool release).
     */
    std::uint64_t epoch() const { return epoch_; }

    /** Total bytes of backing chunks held (capacity, not usage). */
    std::size_t
    bytesReserved() const
    {
        return reserved_;
    }

    /**
     * Largest bytesUsed() any epoch reached — the arena-pressure gauge
     * the introspection plane reports. Survives reset() on purpose:
     * sweep replications reset between trials, and the interesting
     * number is the worst trial. Deterministic (a pure function of the
     * allocation sequence, alignment padding excluded).
     */
    std::size_t bytesHighWater() const { return usedHighWater_; }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> mem;
        std::size_t size;
    };

    std::vector<Chunk> chunks_;
    std::size_t chunkBytes_;
    std::size_t cur_ = 0;      ///< index of the chunk being bumped
    std::size_t off_ = 0;      ///< bump offset within chunks_[cur_]
    std::size_t reserved_ = 0; ///< sum of chunk sizes
    std::size_t used_ = 0;     ///< payload bytes served this epoch
    std::size_t usedHighWater_ = 0; ///< max used_ across epochs
    std::uint64_t epoch_ = 0;
};

/**
 * The calling thread's arena. Sweep workers draw their replication's
 * event slab and packet pool from here; the harness resets it between
 * replications. Long-lived simulations on the main thread should keep
 * the default heap-backed slabs instead (a reset would pull the rug).
 */
Arena &threadArena();

} // namespace blitz::sim

#endif // BLITZ_SIM_ARENA_HPP
