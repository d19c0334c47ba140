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
 */

#ifndef BLITZ_TESTS_TIMER_DIFF_HPP
#define BLITZ_TESTS_TIMER_DIFF_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace blitz::testing {

/** One executed callback: (tick, id); timer k logs -1 - k. */
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

/** Where a backend reports that timer k fired. */
struct FireSink
{
    void (*fire)(void *drive, std::uint32_t k);
    void *drive;
};

/** The timers under test. */
class RealTimers
{
  public:
    RealTimers(sim::EventQueue &eq, FireSink sink) : sink_(sink)
    {
        for (std::uint32_t k = 0; k < kTimers; ++k)
            t_.push_back(std::make_unique<sim::Timer>(
                eq, [this, k] { sink_.fire(sink_.drive, k); },
                timerPrio(k)));
    }

    void
    arm(std::uint32_t k, sim::Tick when)
    {
        removed_ += t_[k]->armed();
        t_[k]->arm(when);
    }
    void
    disarm(std::uint32_t k)
    {
        removed_ += t_[k]->armed();
        t_[k]->disarm();
    }
    bool armed(std::uint32_t k) { return t_[k]->armed(); }

    /** Armed entries that a disarm or re-arm took out of the queue. */
    std::uint64_t removed() const { return removed_; }

  private:
    FireSink sink_;
    std::vector<std::unique_ptr<sim::Timer>> t_;
    std::uint64_t removed_ = 0;
};

/** Reference: a schedule() per arm, dropped at fire time if stale. */
class StampedTimers
{
  public:
    StampedTimers(sim::EventQueue &eq, FireSink sink) : eq_(eq), sink_(sink)
    {
    }

    void
    arm(std::uint32_t k, sim::Tick when)
    {
        const std::uint64_t stamp = ++stamp_[k];
        armed_[k] = true;
        eq_.schedule(when, [this, k, stamp] {
            if (stamp != stamp_[k])
                return;
            armed_[k] = false;
            sink_.fire(sink_.drive, k);
        }, timerPrio(k));
    }
    void
    disarm(std::uint32_t k)
    {
        ++stamp_[k];
        armed_[k] = false;
    }
    bool armed(std::uint32_t k) { return armed_[k]; }

  private:
    sim::EventQueue &eq_;
    FireSink sink_;
    std::array<std::uint64_t, kTimers> stamp_{};
    std::array<bool, kTimers> armed_{};
};

/**
 * Drives the workload over a Timers backend (RealTimers or
 * StampedTimers below); see the file comment.
 */
template <class Timers>
class TimerDrive
{
  public:
    TimerDrive(sim::EventQueue &eq, std::uint64_t seed,
               std::uint32_t budget)
        : eq_(eq), timers_(eq, FireSink{&fireHook, this}),
          rng_(seed * 1000), budget_(budget)
    {
    }

    /** Callback of timer @p k. */
    static void
    fireHook(void *drive, std::uint32_t k)
    {
        auto *d = static_cast<TimerDrive *>(drive);
        d->log_.emplace_back(d->eq_.now(), -1 - static_cast<int>(k));
        d->act();
    }

    /** Random operation on the timers from outside any run. */
    void
    poke()
    {
        const auto k = static_cast<std::uint32_t>(rng_.below(kTimers));
        if (rng_.below(3) == 0)
            timers_.disarm(k);
        else
            timers_.arm(k, eq_.now() + delta(rng_));
    }

    const TimerLog &log() const { return log_; }
    Timers &timers() { return timers_; }

  private:
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
    plain(int id)
    {
        log_.emplace_back(eq_.now(), id);
        act();
    }

    void
    act()
    {
        if (budget_ == 0)
            return;
        --budget_;
        for (int draws = 0; draws < 3; ++draws) {
            const std::uint64_t r = rng_.below(16);
            const auto k = static_cast<std::uint32_t>(rng_.below(kTimers));
            if (r < 6) {
                timers_.arm(k, eq_.now() + delta(rng_));
            } else if (r < 8) {
                timers_.disarm(k);
            } else if (r < 11) {
                const int id = static_cast<int>(rng_.below(1000));
                eq_.schedule(eq_.now() + delta(rng_),
                             [this, id] { plain(id); }, timerPrio(k));
            } else if (r < 12) {
                const int id = static_cast<int>(rng_.below(1000));
                eq_.schedule(eq_.now() + 1 + delta(rng_),
                             [this, id] { plain(id); });
            }
        }
    }

    sim::EventQueue &eq_;
    Timers timers_;
    sim::Rng rng_;
    TimerLog log_;
    std::uint32_t budget_; ///< callbacks left that may act
};

} // namespace blitz::testing

#endif // BLITZ_TESTS_TIMER_DIFF_HPP
