/**
 * @file
 * Validated reads of the numeric environment knobs (BLITZ_SHARDS,
 * BLITZ_SWEEP_THREADS).
 */

#ifndef BLITZ_SIM_ENV_HPP
#define BLITZ_SIM_ENV_HPP

#include <cstdint>
#include <optional>

namespace blitz::sim {

/**
 * The positive count held by environment variable @p name. The whole
 * value must be decimal digits naming a number in [1, UINT32_MAX];
 * anything else ("4abc", "0", "-3", "4294967296") is rejected with a
 * warning. Returns std::nullopt when unset or rejected, so the caller
 * falls back to its default.
 */
std::optional<std::uint32_t> envCount(const char *name);

} // namespace blitz::sim

#endif // BLITZ_SIM_ENV_HPP
