#include "env.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <string>

#include "logging.hpp"

namespace blitz::sim {

std::optional<std::uint32_t>
envCount(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return std::nullopt;
    // strtoull alone would accept leading blanks and a sign (wrapping
    // "-3" to a huge value), so the first character must be a digit.
    if (*env >= '0' && *env <= '9') {
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (errno == 0 && *end == '\0' && v > 0 &&
            v <= std::numeric_limits<std::uint32_t>::max())
            return static_cast<std::uint32_t>(v);
    }
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
