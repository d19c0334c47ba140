#include "topology.hpp"

#include <algorithm>
#include <cmath>

#include "sim/types.hpp"

namespace blitz::noc {

const char *
dirName(Dir d)
{
    switch (d) {
      case Dir::North: return "N";
      case Dir::South: return "S";
      case Dir::East:  return "E";
      case Dir::West:  return "W";
    }
    return "?";
}

Topology::Topology(int width, int height, bool wrap)
    : width_(width), height_(height), wrap_(wrap),
      rowMagic_((std::uint64_t{1} << kRowShift) /
                    static_cast<std::uint64_t>(width < 1 ? 1 : width) +
                1)
{
    if (width < 1 || height < 1)
        sim::fatal("topology dimensions must be positive, got ",
                   width, "x", height);
    // Index-width contract: node ids must fit the sharded event
    // kernel's 20-bit locus key field (see sim::kMaxMeshNodes).
    if (size() > sim::kMaxMeshNodes)
        sim::fatal("mesh ", width, "x", height, " exceeds the ",
                   sim::kMaxMeshNodes,
                   "-node ceiling of the sharded ordering key");
    // The round-up reciprocal is provably exact for this shift once
    // id * width fits well under 2^kRowShift, but the routing layer
    // leans on it for every hop, so verify the full id range outright
    // — one multiply per node, a few ms even at a 1000x1000 mesh.
    for (NodeId id = 0; id < size(); ++id) {
        const auto y =
            static_cast<std::uint64_t>((id * rowMagic_) >> kRowShift);
        if (y != id / static_cast<std::uint64_t>(width_))
            sim::fatal("row reciprocal inexact at id ", id, " for ",
                       width, "x", height);
    }
}

std::vector<NodeId>
Topology::neighbors(NodeId id) const
{
    std::vector<NodeId> out;
    out.reserve(4);
    for (Dir d : allDirs) {
        auto n = neighbor(id, d);
        // Skip self-links (1-wide wrapped dimensions) and duplicates
        // (2-wide wrapped dimensions reach the same node both ways).
        if (n && *n != id &&
            std::find(out.begin(), out.end(), *n) == out.end()) {
            out.push_back(*n);
        }
    }
    return out;
}

} // namespace blitz::noc
