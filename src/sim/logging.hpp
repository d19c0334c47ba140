/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated; this is a simulator bug.
 *            Aborts so a debugger or core dump catches it.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, impossible parameters). Exits cleanly.
 * warn()   — something looks suspicious but the run can continue.
 */

#ifndef BLITZ_SIM_LOGGING_HPP
#define BLITZ_SIM_LOGGING_HPP

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace blitz::sim {

/** Thrown by fatal() so tests can observe user-level errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Thrown by panic() so tests can observe internal-invariant violations. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error(what)
    {}
};

namespace detail {

void emitWarning(const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Report an internal invariant violation (a simulator bug) and throw.
 * @param args streamable message parts.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError("panic: " +
                     detail::format(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user error (bad configuration) and throw.
 * @param args streamable message parts.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError("fatal: " +
                     detail::format(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitWarning(detail::format(std::forward<Args>(args)...));
}

/** panic() unless the condition holds. */
#define BLITZ_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::blitz::sim::panic("assertion '" #cond "' failed: ",          \
                                ##__VA_ARGS__);                             \
        }                                                                   \
    } while (0)

} // namespace blitz::sim

#endif // BLITZ_SIM_LOGGING_HPP
