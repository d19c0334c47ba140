#include "logging.hpp"

#include <iostream>

namespace blitz::sim::detail {

void
emitWarning(const std::string &msg)
{
    std::cerr << "warn: " << msg << '\n';
}

} // namespace blitz::sim::detail
