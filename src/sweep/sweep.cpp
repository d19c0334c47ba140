#include "sweep.hpp"

#include <thread>

#include "sim/env.hpp"

namespace blitz::sweep {

std::size_t
defaultThreads()
{
    if (const auto v = sim::envCount("BLITZ_SWEEP_THREADS"))
        return *v;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace blitz::sweep
