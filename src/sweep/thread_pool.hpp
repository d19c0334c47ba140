/**
 * @file
 * Fixed-size thread pool for the experiment sweep harness.
 *
 * The pool is deliberately minimal: a bounded set of workers draining a
 * FIFO of jobs behind one mutex. Experiment replications are coarse
 * (milliseconds to seconds of simulation each), so queue contention is
 * irrelevant and simplicity wins — the determinism guarantee of the
 * sweep layer must not depend on anything the pool does.
 */

#ifndef BLITZ_SWEEP_THREAD_POOL_HPP
#define BLITZ_SWEEP_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blitz::sweep {

/**
 * Fixed-size worker pool.
 *
 * Jobs submitted with submit() run on one of the pool's threads in
 * unspecified order; wait() blocks until every submitted job finished.
 * The destructor drains outstanding work before joining.
 */
class ThreadPool
{
  public:
    /** @param threads worker count. @pre threads > 0. */
    explicit ThreadPool(std::size_t threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job for execution on some worker. */
    void submit(std::function<void()> job);

    /** Block until all submitted jobs have completed. */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> jobs_;
    std::mutex mu_;
    std::condition_variable workCv_; ///< signals workers: job or stop
    std::condition_variable idleCv_; ///< signals wait(): all drained
    std::size_t inFlight_ = 0;       ///< jobs popped but not finished
    bool stop_ = false;
};

} // namespace blitz::sweep

#endif // BLITZ_SWEEP_THREAD_POOL_HPP
