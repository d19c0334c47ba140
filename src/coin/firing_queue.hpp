/**
 * @file
 * Pending refresh firings of the behavioral engine, one per tile.
 *
 * Every tile of a MeshSim always has exactly one firing pending: the
 * constructor schedules each tile, a firing reschedules the tile that
 * fired, and an activity change reschedules the tile it touches. A
 * reschedule therefore *moves* the tile's firing instead of queuing a
 * second one — the refresh counter of the hardware is reloaded, not
 * duplicated — and the queue never holds a stale entry.
 *
 * The structure is an indexed 4-ary min-heap of packed 64-bit keys,
 * `(when << kTileBits) | tile`, plus a per-tile position array. One
 * integer compare orders two entries exactly as (when, tile) does, and
 * a node's four children are 32 contiguous bytes of keys.
 */

#ifndef BLITZ_COIN_FIRING_QUEUE_HPP
#define BLITZ_COIN_FIRING_QUEUE_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace blitz::coin {

class FiringQueue
{
  public:
    /** Low key bits holding the tile id. */
    static constexpr unsigned kTileBits = 20;
    static_assert(sim::kMaxMeshNodes < (std::uint64_t{1} << kTileBits),
                  "tile ids no longer fit the firing key's tile field");
    /** Firing ticks must stay below this bound to fit the key. */
    static constexpr sim::Tick kWhenLimit = sim::Tick{1}
                                            << (64 - kTileBits);

    /** An empty queue for tiles [0, @p tiles). */
    explicit FiringQueue(std::size_t tiles) : pos_(tiles, kAbsent)
    {
        BLITZ_ASSERT(tiles <= sim::kMaxMeshNodes,
                     "firing queue for ", tiles, " tiles exceeds the ",
                     sim::kMaxMeshNodes, "-tile key field");
        heap_.reserve(tiles);
    }

    std::size_t size() const { return heap_.size(); }

    /** Earliest pending firing, as its packed key (non-empty queue). */
    std::uint64_t topKey() const { return heap_.front(); }
    sim::Tick topWhen() const { return heap_.front() >> kTileBits; }
    std::uint32_t
    topTile() const
    {
        return static_cast<std::uint32_t>(heap_.front() & kTileMask);
    }

    /**
     * Set @p tile's pending firing to @p when: insert it if the tile
     * has none yet, otherwise re-key its entry in place.
     */
    void
    schedule(std::uint32_t tile, sim::Tick when)
    {
        BLITZ_ASSERT(when < kWhenLimit, "firing tick ", when,
                     " exceeds the firing key's 44-bit tick field");
        const std::uint64_t key = (when << kTileBits) | tile;
        const std::uint32_t at = pos_[tile];
        if (at == kAbsent) {
            heap_.push_back(key);
            siftUp(heap_.size() - 1, key);
        } else if (key < heap_[at]) {
            siftUp(at, key);
        } else if (key > heap_[at]) {
            siftDown(at, key);
        }
    }

  private:
    static constexpr std::uint64_t kTileMask =
        (std::uint64_t{1} << kTileBits) - 1;
    static constexpr std::uint32_t kAbsent =
        std::numeric_limits<std::uint32_t>::max();

    void
    place(std::size_t i, std::uint64_t key)
    {
        heap_[i] = key;
        pos_[key & kTileMask] = static_cast<std::uint32_t>(i);
    }

    /** Hole-based sift toward the root from @p i. */
    void
    siftUp(std::size_t i, std::uint64_t key)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (heap_[parent] < key)
                break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, key);
    }

    /** Hole-based sift toward the leaves from @p i. */
    void
    siftDown(std::size_t i, std::uint64_t key)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            std::uint64_t bestKey = heap_[first];
            if (first + 3 < n) {
                // Full group: two pairwise minima, then their minimum,
                // all as selects rather than branches.
                const std::uint64_t *c = &heap_[first];
                const bool lo = c[1] < c[0];
                const bool hi = c[3] < c[2];
                const std::uint64_t k0 = lo ? c[1] : c[0];
                const std::uint64_t k1 = hi ? c[3] : c[2];
                const bool second = k1 < k0;
                bestKey = second ? k1 : k0;
                best = first + (second ? 2 + hi : lo);
            } else {
                for (std::size_t c = first + 1; c < n; ++c) {
                    if (heap_[c] < bestKey) {
                        best = c;
                        bestKey = heap_[c];
                    }
                }
            }
            if (key < bestKey)
                break;
            place(i, bestKey);
            i = best;
        }
        place(i, key);
    }

    std::vector<std::uint64_t> heap_;
    std::vector<std::uint32_t> pos_; ///< heap index per tile, or kAbsent
};

} // namespace blitz::coin

#endif // BLITZ_COIN_FIRING_QUEUE_HPP
