/**
 * @file
 * Differential harness for sim::Timer.
 *
 * A seeded random workload of timer arms, re-arms and disarms mixed
 * with plain schedule() events, run twice: once through sim::Timer and
 * once through the idiom it replaced — a schedule() per arm whose
 * callback returns early unless its stamp is still current. Both
 * consume one insertion key per arm, so the two runs must execute the
 * same (tick, id) sequence. The workload reaches the live batch
 * (same-tick arms), the wheel, the far-heap and runUntil() horizons.
 *
 * Every node owns kTimers timers and one Rng, and its callbacks touch
 * only that node's state, so on a sharded anchor a node's work never
 * races with another shard's. Plain queues use a single node.
 */

#ifndef BLITZ_TESTS_TIMER_DIFF_HPP
#define BLITZ_TESTS_TIMER_DIFF_HPP

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace blitz::testing {

/** One executed callback: (tick, id); timer k of a node logs -1 - k. */
using TimerLog = std::vector<std::pair<sim::Tick, int>>;

inline constexpr std::uint32_t kTimers = 6;

/** Priority of timer k: mixed classes so same-tick ties cross them. */
inline sim::Priority
timerPrio(std::uint32_t k)
{
    constexpr sim::Priority prios[] = {sim::Priority::NocTransfer,
                                       sim::Priority::Default,
                                       sim::Priority::Controller};
    return prios[k % 3];
}

/** Where a backend reports that timer k of node n fired. */
struct FireSink
{
    void (*fire)(void *drive, std::uint32_t n, std::uint32_t k);
    void *drive;
};

/** The timers under test. */
class RealTimers
{
  public:
    RealTimers(sim::EventQueue &eq, std::uint32_t nodes, FireSink sink)
        : sink_(sink), removed_(nodes, 0)
    {
        for (std::uint32_t n = 0; n < nodes; ++n)
            for (std::uint32_t k = 0; k < kTimers; ++k)
                t_.push_back(std::make_unique<sim::Timer>(
                    eq, [this, n, k] { sink_.fire(sink_.drive, n, k); },
                    timerPrio(k)));
    }

    void
    arm(std::uint32_t n, std::uint32_t k, sim::Tick when)
    {
        removed_[n] += at(n, k).armed();
        at(n, k).arm(when);
    }
    void
    disarm(std::uint32_t n, std::uint32_t k)
    {
        removed_[n] += at(n, k).armed();
        at(n, k).disarm();
    }
    bool armed(std::uint32_t n, std::uint32_t k) { return at(n, k).armed(); }

    /** Armed entries that a disarm or re-arm took out of the queue. */
    std::uint64_t
    removed() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t r : removed_)
            total += r;
        return total;
    }

  private:
    sim::Timer &
    at(std::uint32_t n, std::uint32_t k)
    {
        return *t_[n * kTimers + k];
    }

    FireSink sink_;
    std::vector<std::unique_ptr<sim::Timer>> t_;
    std::vector<std::uint64_t> removed_; ///< per node (per-thread writes)
};

/** Reference: a schedule() per arm, dropped at fire time if stale. */
class StampedTimers
{
  public:
    StampedTimers(sim::EventQueue &eq, std::uint32_t nodes, FireSink sink)
        : eq_(eq), sink_(sink), stamp_(nodes * kTimers, 0),
          armed_(nodes * kTimers, 0)
    {
    }

    void
    arm(std::uint32_t n, std::uint32_t k, sim::Tick when)
    {
        const std::size_t i = n * kTimers + k;
        const std::uint64_t stamp = ++stamp_[i];
        armed_[i] = 1;
        eq_.schedule(when, [this, i, n, k, stamp] {
            if (stamp != stamp_[i])
                return;
            armed_[i] = 0;
            sink_.fire(sink_.drive, n, k);
        }, timerPrio(k));
    }
    void
    disarm(std::uint32_t n, std::uint32_t k)
    {
        ++stamp_[n * kTimers + k];
        armed_[n * kTimers + k] = 0;
    }
    bool
    armed(std::uint32_t n, std::uint32_t k)
    {
        return armed_[n * kTimers + k];
    }

  private:
    sim::EventQueue &eq_;
    FireSink sink_;
    std::vector<std::uint64_t> stamp_;
    std::vector<char> armed_;
};

/**
 * Drives the workload over a Timers backend (RealTimers or
 * StampedTimers below); see the file comment.
 */
template <class Timers>
class TimerDrive
{
  public:
    TimerDrive(sim::EventQueue &eq, std::uint32_t nodes,
               std::uint64_t seed, std::uint32_t budget)
        : eq_(eq), timers_(eq, nodes, FireSink{&fireHook, this}),
          nodes_(nodes)
    {
        for (std::uint32_t n = 0; n < nodes; ++n)
            state_.push_back({sim::Rng(seed * 1000 + n), {}, budget});
    }

    /** Callback of timer @p k at node @p n. */
    static void
    fireHook(void *drive, std::uint32_t n, std::uint32_t k)
    {
        auto *d = static_cast<TimerDrive *>(drive);
        d->state_[n].log.emplace_back(d->eq_.now(),
                                      -1 - static_cast<int>(k));
        d->act(n);
    }

    /** Random operation on node @p n's timers from outside any run. */
    void
    poke(std::uint32_t n)
    {
        Node &s = state_[n];
        const auto k = static_cast<std::uint32_t>(s.rng.below(kTimers));
        if (s.rng.below(3) == 0)
            timers_.disarm(n, k);
        else
            timers_.arm(n, k, eq_.now() + delta(s.rng));
    }

    const TimerLog &log(std::uint32_t n) const { return state_[n].log; }
    Timers &timers() { return timers_; }

  private:
    struct Node
    {
        sim::Rng rng;
        TimerLog log;
        std::uint32_t budget; ///< callbacks left that may act
    };

    /** Same tick, near, in-window or far-heap distance. */
    static sim::Tick
    delta(sim::Rng &rng)
    {
        switch (rng.below(8)) {
          case 0:
            return 0;
          case 1:
          case 2:
          case 3:
            return 1 + rng.below(8);
          case 4:
          case 5:
            return 9 + rng.below(4087);
          default:
            return 4096 + rng.below(20000);
        }
    }

    void
    plain(std::uint32_t n, int id)
    {
        state_[n].log.emplace_back(eq_.now(), id);
        act(n);
    }

    void
    act(std::uint32_t n)
    {
        Node &s = state_[n];
        if (s.budget == 0)
            return;
        --s.budget;
        for (int draws = 0; draws < 3; ++draws) {
            const std::uint64_t r = s.rng.below(16);
            const auto k = static_cast<std::uint32_t>(s.rng.below(kTimers));
            if (r < 6) {
                timers_.arm(n, k, eq_.now() + delta(s.rng));
            } else if (r < 8) {
                timers_.disarm(n, k);
            } else if (r < 11) {
                const int id = static_cast<int>(s.rng.below(1000));
                eq_.scheduleAtNode(n, eq_.now() + delta(s.rng),
                                   [this, n, id] { plain(n, id); },
                                   timerPrio(k));
            } else if (r < 12) {
                // Another node, past the one-tick lookahead horizon.
                const auto m = static_cast<std::uint32_t>(s.rng.below(nodes_));
                const int id = static_cast<int>(s.rng.below(1000));
                eq_.scheduleAtNode(m, eq_.now() + 1 + delta(s.rng),
                                   [this, m, id] { plain(m, id); });
            }
        }
    }

    sim::EventQueue &eq_;
    Timers timers_;
    std::uint32_t nodes_;
    std::vector<Node> state_;
};

} // namespace blitz::testing

#endif // BLITZ_TESTS_TIMER_DIFF_HPP
