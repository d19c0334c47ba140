#include "neighborhood.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace blitz::coin {

namespace {

/**
 * First managed tile reached from @p start walking direction @p d on
 * the wrapped grid; nullopt when the orbit contains no managed tile.
 */
std::optional<noc::NodeId>
walk(const noc::Topology &wrapped, const std::vector<bool> &managed,
     noc::NodeId start, noc::Dir d)
{
    noc::NodeId at = start;
    const std::size_t limit = std::max(wrapped.width(), wrapped.height());
    for (std::size_t step = 0; step < limit; ++step) {
        auto next = wrapped.neighbor(at, d);
        BLITZ_ASSERT(next.has_value(), "wrapped walk left the grid");
        at = *next;
        if (at == start)
            return std::nullopt; // completed the orbit
        if (managed[at])
            return at;
    }
    return std::nullopt;
}

} // namespace

std::vector<Neighborhood>
managedNeighborhoods(const noc::Topology &topo,
                     const std::vector<bool> &managed)
{
    BLITZ_ASSERT(managed.size() == topo.size(),
                 "managed flag list size mismatch");
    auto list = std::make_shared<std::vector<noc::NodeId>>();
    for (noc::NodeId i = 0; i < topo.size(); ++i) {
        if (managed[i])
            list->push_back(i);
    }
    const std::vector<noc::NodeId> &members = *list;

    std::vector<Neighborhood> out(topo.size());
    if (members.size() < 2)
        return out;

    // Walks wrap regardless of the topology's own flag: the logical
    // neighborhood always uses the Fig. 5 wrap-around definition.
    noc::Topology wrapped(topo.width(), topo.height(), true);
    for (noc::NodeId self : members) {
        Neighborhood &nb = out[self];
        nb.members = list;
        for (noc::Dir d : noc::allDirs) {
            auto n = walk(wrapped, managed, self, d);
            if (n && *n != self &&
                std::find(nb.neighbors.begin(), nb.neighbors.end(),
                          *n) == nb.neighbors.end()) {
                nb.neighbors.push_back(*n);
            }
        }
        if (nb.neighbors.empty()) {
            // Degenerate placement (no managed tile shares a row or
            // column): fall back to the nearest managed tiles.
            std::vector<noc::NodeId> others;
            for (noc::NodeId m : members) {
                if (m != self)
                    others.push_back(m);
            }
            std::sort(others.begin(), others.end(),
                      [&](noc::NodeId a, noc::NodeId b) {
                          int da = wrapped.distance(self, a);
                          int db = wrapped.distance(self, b);
                          if (da != db)
                              return da < db;
                          return a < b;
                      });
            for (std::size_t k = 0; k < others.size() && k < 4; ++k)
                nb.neighbors.push_back(others[k]);
        }
    }
    return out;
}

} // namespace blitz::coin
