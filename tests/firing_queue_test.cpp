/**
 * @file
 * FiringQueue against the stamp-guarded heap it replaced.
 *
 * The behavioral engine used to push a new (when, tile, stamp) entry
 * on every reschedule and skip entries whose stamp no longer matched
 * the tile's latest one. FiringQueue re-keys the tile's single entry
 * instead. The reference below is that idiom verbatim; seeded random
 * schedule / re-key / fire sequences must fire the same (when, tile)
 * sequence through both, including same-tick ties across tiles, a
 * re-keyed top entry, re-keys to the entry's own key and to earlier and
 * later ticks, and a drain that stops at a horizon below the minimum.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coin/firing_queue.hpp"
#include "sim/logging.hpp"
#include "sim/rng.hpp"

namespace {

using namespace blitz;
using coin::FiringQueue;
using Fired = std::pair<sim::Tick, std::uint32_t>;

/** The tombstone idiom: one pushed entry per reschedule. */
class TombstoneQueue
{
  public:
    explicit TombstoneQueue(std::size_t tiles) : pending_(tiles, 0) {}

    void
    schedule(std::uint32_t tile, sim::Tick when)
    {
        ++pending_[tile];
        heap_.push(Firing{when, tile, pending_[tile]});
    }

    /** Earliest live entry; stale entries on top are discarded. */
    Fired
    top()
    {
        while (heap_.top().stamp != pending_[heap_.top().tile])
            heap_.pop();
        return {heap_.top().when, heap_.top().tile};
    }

    /** Consume the live top entry (the old run loop's pop). */
    void pop() { heap_.pop(); }

  private:
    struct Firing
    {
        sim::Tick when;
        std::uint32_t tile;
        std::uint64_t stamp;

        bool
        operator>(const Firing &o) const
        {
            if (when != o.when)
                return when > o.when;
            return tile > o.tile;
        }
    };

    std::vector<std::uint64_t> pending_;
    std::priority_queue<Firing, std::vector<Firing>,
                        std::greater<Firing>> heap_;
};

/** Drives both queues with the same operations and a key model. */
class Pair
{
  public:
    explicit Pair(std::size_t tiles)
        : fq_(tiles), ref_(tiles), key_(tiles, 0)
    {
    }

    void
    schedule(std::uint32_t tile, sim::Tick when)
    {
        fq_.schedule(tile, when);
        ref_.schedule(tile, when);
        key_[tile] = when;
    }

    sim::Tick key(std::uint32_t tile) const { return key_[tile]; }

    /** Both tops, checked equal; returns the common one. */
    Fired
    top()
    {
        const Fired want = ref_.top();
        const Fired got(fq_.topWhen(), fq_.topTile());
        if (got != want)
            ADD_FAILURE() << "queue top (" << got.first << ", "
                          << got.second << ") != reference ("
                          << want.first << ", " << want.second << ")";
        EXPECT_EQ(fq_.size(), key_.size());
        return want;
    }

    /**
     * Fire every entry due at or before @p limit, the way the engine
     * does: the reference pops its top, the queue leaves it in place,
     * and both see the same reschedules of partners (possibly at the
     * fired tick itself, a same-tick tie) and of the fired tile. Each
     * firing is compared as it is taken, so the two fired sequences
     * agree element by element.
     */
    void
    drain(sim::Tick limit, sim::Rng &rng)
    {
        const auto n = static_cast<std::uint32_t>(key_.size());
        for (Fired f = top(); f.first <= limit; f = top()) {
            ++fired;
            ties += f.first == last_.first && f.second != last_.second;
            last_ = f;
            ref_.pop();
            for (int p = static_cast<int>(rng.below(3)); p > 0; --p) {
                const auto partner =
                    static_cast<std::uint32_t>(rng.below(n));
                if (partner != f.second)
                    schedule(partner, f.first + rng.below(6));
            }
            schedule(f.second, f.first + 1 + rng.below(8));
        }
        EXPECT_GT(top().first, limit);
    }

    std::uint64_t fired = 0;
    std::uint64_t ties = 0; ///< consecutive same-tick firings

  private:
    FiringQueue fq_;
    TombstoneQueue ref_;
    std::vector<sim::Tick> key_;
    Fired last_{~sim::Tick{0}, 0};
};

void
runDifferential(std::size_t tiles, std::uint64_t seed)
{
    sim::Rng rng(seed);
    Pair q(tiles);
    const auto n = static_cast<std::uint32_t>(tiles);
    // Initial firings over a narrow window: many same-tick ties.
    for (std::uint32_t t = 0; t < n; ++t)
        q.schedule(t, 1 + rng.below(8));

    sim::Tick horizon = 0;
    std::uint64_t rekeys[4] = {0, 0, 0, 0};
    for (int round = 0; round < 400; ++round) {
        horizon += rng.below(tiles > 1000 ? 3 : 12);
        q.drain(horizon, rng);
        // Re-key a few entries between drains, as setMax does; few
        // enough on a tiny mesh that its tiles still come due.
        const std::uint64_t most = std::min<std::uint64_t>(6, tiles + 1);
        for (int r = static_cast<int>(rng.below(most)); r > 0; --r) {
            const auto kind = rng.below(4);
            const std::uint32_t tile =
                kind == 0 ? q.top().second
                          : static_cast<std::uint32_t>(rng.below(n));
            const sim::Tick k = q.key(tile);
            switch (kind) {
              case 0: // the top entry, to a later tick
                q.schedule(tile, k + 1 + rng.below(10));
                break;
              case 1: // its own key: a no-op for both
                q.schedule(tile, k);
                break;
              case 2: // earlier, possibly below the current top
                q.schedule(tile,
                           k - std::min<sim::Tick>(k, rng.below(10)));
                break;
              default: // later
                q.schedule(tile, k + rng.below(20));
                break;
            }
            ++rekeys[kind];
            q.top();
        }
    }
    // Non-vacuity: the sequence is long, every re-key kind ran, and
    // tiles did share ticks.
    EXPECT_GT(q.fired, 200u);
    for (std::uint64_t c : rekeys)
        EXPECT_GT(c, 0u);
    if (tiles > 1) {
        EXPECT_GT(q.ties, 0u);
    }
}

TEST(FiringQueue, MatchesTombstoneHeapOnRandomSequences)
{
    for (std::size_t tiles : {1u, 2u, 7u, 100u, 4096u}) {
        for (std::uint64_t seed : {1u, 7919u}) {
            SCOPED_TRACE(::testing::Message()
                         << "tiles=" << tiles << " seed=" << seed);
            runDifferential(tiles, seed);
        }
    }
}

TEST(FiringQueue, InsertsThenRekeysInPlace)
{
    FiringQueue q(3);
    EXPECT_EQ(q.size(), 0u);
    q.schedule(2, 5);
    q.schedule(0, 5);
    q.schedule(1, 9);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.topWhen(), 5u);
    EXPECT_EQ(q.topTile(), 0u); // same tick: lower tile id first
    q.schedule(0, 7);           // re-key the top later
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.topTile(), 2u);
    q.schedule(1, 1); // re-key earlier, past the top
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.topTile(), 1u);
    EXPECT_EQ(q.topWhen(), 1u);
}

TEST(FiringQueue, TickBeyondKeyFieldPanics)
{
    FiringQueue q(1);
    q.schedule(0, FiringQueue::kWhenLimit - 1);
    EXPECT_EQ(q.topWhen(), FiringQueue::kWhenLimit - 1);
    EXPECT_THROW(q.schedule(0, FiringQueue::kWhenLimit),
                 sim::PanicError);
}

} // namespace
