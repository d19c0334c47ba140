/**
 * @file
 * Fundamental simulation types and time conversions.
 *
 * The whole simulator is clocked in NoC cycles: the fabricated BlitzCoin
 * SoC runs its network-on-chip at 800 MHz, so one tick equals 1.25 ns.
 * All response times reported by the benchmarks convert ticks to
 * microseconds through these helpers so the numbers are directly
 * comparable with the paper's.
 */

#ifndef BLITZ_SIM_TYPES_HPP
#define BLITZ_SIM_TYPES_HPP

#include <cstdint>
#include <limits>

namespace blitz::sim {

/** Simulated time, measured in NoC clock cycles. */
using Tick = std::uint64_t;

/** Sentinel for "never" / "unscheduled". */
inline constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/**
 * Ceiling on mesh nodes a single simulation may address: 2^20 - 1
 * (comfortably past a 1000x1000 mesh). This is an index-width
 * contract, not a tuning knob: coin::FiringQueue packs the tile index
 * into a fixed-width field of its sort key, and the .blzr replay
 * header rejects larger meshes. Topology checks against it at
 * construction.
 */
inline constexpr std::size_t kMaxMeshNodes = (std::size_t{1} << 20) - 1;

/** NoC clock frequency of the reference SoC (Hz). */
inline constexpr double nocFrequencyHz = 800e6;

/** Duration of one NoC cycle in nanoseconds. */
inline constexpr double nsPerTick = 1e9 / nocFrequencyHz;

/** Convert a tick count to nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) * nsPerTick;
}

/** Convert a tick count to microseconds. */
constexpr double
ticksToUs(Tick t)
{
    return ticksToNs(t) * 1e-3;
}

/** Convert nanoseconds to the nearest tick count (rounds up). */
constexpr Tick
nsToTicks(double ns)
{
    double t = ns / nsPerTick;
    auto whole = static_cast<Tick>(t);
    return (static_cast<double>(whole) < t) ? whole + 1 : whole;
}

/** Convert microseconds to ticks. */
constexpr Tick
usToTicks(double us)
{
    return nsToTicks(us * 1e3);
}

/** Convert milliseconds to ticks. */
constexpr Tick
msToTicks(double ms)
{
    return nsToTicks(ms * 1e6);
}

} // namespace blitz::sim

#endif // BLITZ_SIM_TYPES_HPP
