/**
 * @file
 * Validated reads of numeric text: the BLITZ_SWEEP_THREADS
 * environment knob and the tools' count flags.
 */

#ifndef BLITZ_SIM_ENV_HPP
#define BLITZ_SIM_ENV_HPP

#include <cstdint>
#include <optional>

namespace blitz::sim {

/**
 * The count spelled by @p text. The whole string must be decimal
 * digits naming a number in [@p lo, @p hi]; anything else (a sign,
 * blanks, "4abc", a value out of range or past UINT64_MAX) yields
 * std::nullopt.
 */
std::optional<std::uint64_t> parseCount(const char *text,
                                        std::uint64_t lo,
                                        std::uint64_t hi);

/**
 * The positive count held by environment variable @p name: a
 * parseCount() in [1, UINT32_MAX]. A value that fails ("4abc", "0",
 * "-3", "4294967296") is rejected with a warning. Returns std::nullopt
 * when unset or rejected, so the caller falls back to its default.
 */
std::optional<std::uint32_t> envCount(const char *name);

} // namespace blitz::sim

#endif // BLITZ_SIM_ENV_HPP
