#include "env.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <string>

#include "logging.hpp"

namespace blitz::sim {

std::optional<std::uint64_t>
parseCount(const char *text, std::uint64_t lo, std::uint64_t hi)
{
    // strtoull alone would accept leading blanks and a sign (wrapping
    // "-3" to a huge value), so the first character must be a digit.
    if (!text || *text < '0' || *text > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return v;
}

std::optional<std::uint32_t>
envCount(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return std::nullopt;
    if (const auto v = parseCount(
            env, 1, std::numeric_limits<std::uint32_t>::max()))
        return static_cast<std::uint32_t>(*v);
    // Harnesses re-read a knob per trial and per worker; one warning
    // per bad value is enough.
    static std::mutex mu;
    static std::set<std::string> warned;
    const std::lock_guard<std::mutex> lock(mu);
    if (warned.insert(std::string(name) + '=' + env).second)
        warn("ignoring invalid ", name, "='", env, "'");
    return std::nullopt;
}

} // namespace blitz::sim
