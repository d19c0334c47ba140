#include "sweep.hpp"

#include <thread>

#include "sim/env.hpp"
#include "sim/shard.hpp"

namespace blitz::sweep {

std::size_t
defaultThreads()
{
    if (const auto v = sim::envCount("BLITZ_SWEEP_THREADS"))
        return *v;
    unsigned hw = std::thread::hardware_concurrency();
    std::size_t threads = hw > 0 ? hw : 1;
    // Replication-level and shard-level parallelism multiply: when the
    // BLITZ_SHARDS knob asks each replication to run sharded, divide
    // the default worker count so shards x workers stays within the
    // machine (an explicit BLITZ_SWEEP_THREADS overrides this).
    const std::size_t shards = sim::defaultShards();
    if (shards > 1)
        threads = std::max<std::size_t>(1, threads / shards);
    return threads;
}

} // namespace blitz::sweep
