/**
 * @file
 * Logical neighborhoods over a managed subset of a physical mesh.
 *
 * When only some tiles run BlitzCoin (the PM cluster of the silicon
 * prototype, or an SoC whose CPU/MEM/IO tiles hold fixed coins), the
 * exchange mesh is *logical*: a managed tile's neighbor in a direction
 * is the first managed tile reached by walking the physical grid that
 * way (wrapping at the edges, Fig. 5). Packets still route through the
 * physical NoC — unmanaged tiles are simply passed through — so the
 * diffusion argument of Section III is preserved.
 */

#ifndef BLITZ_COIN_NEIGHBORHOOD_HPP
#define BLITZ_COIN_NEIGHBORHOOD_HPP

#include <memory>
#include <vector>

#include "noc/topology.hpp"

namespace blitz::coin {

/**
 * Partner lists for one managed tile.
 */
struct Neighborhood
{
    /** Logical mesh neighbors (rotation partners). */
    std::vector<noc::NodeId> neighbors;
    /**
     * Every managed tile in ascending id order: one list shared by the
     * whole cluster. The random-pairing partners are the members that
     * are neither this tile nor one of its neighbors. Null for
     * unmanaged tiles and for clusters of fewer than two tiles.
     */
    std::shared_ptr<const std::vector<noc::NodeId>> members;
};

/**
 * Compute the logical neighborhood of every managed tile.
 *
 * @param topo the physical mesh.
 * @param managed per-node participation flags (size == topo.size()).
 * @return one Neighborhood per node; unmanaged nodes get empty lists.
 *
 * A directional walk that finds no managed tile contributes nothing;
 * if a tile ends up with no directional neighbors at all, its nearest
 * managed tiles (by wrapped Manhattan distance) are used instead, so
 * every managed tile in a >= 2-tile system has at least one partner.
 */
std::vector<Neighborhood>
managedNeighborhoods(const noc::Topology &topo,
                     const std::vector<bool> &managed);

} // namespace blitz::coin

#endif // BLITZ_COIN_NEIGHBORHOOD_HPP
