/**
 * @file
 * 2D-mesh / torus topology arithmetic.
 *
 * BlitzCoin targets 2D-mesh NoCs (Section IV of the paper); the optional
 * wrap-around mode implements the paper's Fig. 5 optimization where edge
 * and corner tiles reach across to the opposite edge so every tile sees
 * exactly four neighbors.
 */

#ifndef BLITZ_NOC_TOPOLOGY_HPP
#define BLITZ_NOC_TOPOLOGY_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "sim/logging.hpp"

namespace blitz::noc {

/** Flat tile/node index, row-major from the north-west corner. */
using NodeId = std::uint32_t;

/** Cardinal direction of a mesh link. */
enum class Dir : std::uint8_t { North = 0, South = 1, East = 2, West = 3 };

/** All four directions, for iteration. */
inline constexpr std::array<Dir, 4> allDirs = {
    Dir::North, Dir::South, Dir::East, Dir::West};

/** Printable direction name. */
const char *dirName(Dir d);

/** Grid coordinate; x grows east, y grows south. */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord &) const = default;
};

/**
 * Rectangular mesh with optional torus wrap-around.
 *
 * All coordinate/index mapping, neighbor resolution, distance metrics,
 * and dimension-ordered (XY) routing live here; both the behavioral coin
 * engine and the routed network share this one definition so they can
 * never disagree about who neighbors whom.
 */
class Topology
{
  public:
    /**
     * @param width tiles per row. @pre >= 1.
     * @param height tiles per column. @pre >= 1.
     * @param wrap enable torus wrap-around links.
     */
    Topology(int width, int height, bool wrap = false);

    /** Square mesh convenience constructor (d x d). */
    static Topology
    square(int d, bool wrap = false)
    {
        return Topology(d, d, wrap);
    }

    int width() const { return width_; }
    int height() const { return height_; }
    bool wrap() const { return wrap_; }
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(width_) *
               static_cast<std::size_t>(height_);
    }

    /**
     * Coordinate of a node id. @pre id < size(). Division-free: the
     * row comes from a multiply-shift by a reciprocal precomputed at
     * construction (and verified exact over the whole id range
     * there), because this sits under every routing decision and a
     * hardware divide per hop dominated the per-event profile.
     */
    Coord
    coordOf(NodeId id) const
    {
        BLITZ_ASSERT(id < size(), "node id ", id, " out of range");
        const int y = static_cast<int>((id * rowMagic_) >> kRowShift);
        return Coord{static_cast<int>(id) - y * width_, y};
    }

    /** Node id of a coordinate. @pre in bounds. */
    NodeId
    idOf(Coord c) const
    {
        BLITZ_ASSERT(contains(c), "coordinate (", c.x, ",", c.y,
                     ") out of range");
        return static_cast<NodeId>(c.y * width_ + c.x);
    }

    /** True when the coordinate lies inside the grid. */
    bool
    contains(Coord c) const
    {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }

    /**
     * Neighbor in a direction; std::nullopt when the edge is not wrapped.
     * In wrap mode every node has a neighbor in every direction (which,
     * on a 1-wide dimension, may be the node itself).
     */
    std::optional<NodeId>
    neighbor(NodeId id, Dir d) const
    {
        Coord c = coordOf(id);
        switch (d) {
          case Dir::North: c.y -= 1; break;
          case Dir::South: c.y += 1; break;
          case Dir::East:  c.x += 1; break;
          case Dir::West:  c.x -= 1; break;
        }
        if (!contains(c)) {
            if (!wrap_)
                return std::nullopt;
            c.x = (c.x + width_) % width_;
            c.y = (c.y + height_) % height_;
        }
        return idOf(c);
    }

    /** All distinct neighbors of a node, in N,S,E,W order. */
    std::vector<NodeId> neighbors(NodeId id) const;

    /** Manhattan hop distance honoring wrap-around when enabled. */
    int
    distance(NodeId a, NodeId b) const
    {
        Coord ca = coordOf(a);
        Coord cb = coordOf(b);
        return std::abs(axisDelta(ca.x, cb.x, width_)) +
               std::abs(axisDelta(ca.y, cb.y, height_));
    }

    /**
     * Next hop direction under dimension-ordered (X-then-Y) routing.
     * @pre from != to. Chooses the shorter way around in wrap mode.
     */
    Dir
    nextHopDir(NodeId from, NodeId to) const
    {
        BLITZ_ASSERT(from != to, "routing a packet to itself");
        Coord cf = coordOf(from);
        Coord ct = coordOf(to);
        int dx = axisDelta(cf.x, ct.x, width_);
        if (dx != 0)
            return dx > 0 ? Dir::East : Dir::West;
        int dy = axisDelta(cf.y, ct.y, height_);
        BLITZ_ASSERT(dy != 0, "zero route delta for distinct nodes");
        return dy > 0 ? Dir::South : Dir::North;
    }

    /** Next hop node id. @pre from != to. */
    NodeId
    nextHop(NodeId from, NodeId to) const
    {
        auto n = neighbor(from, nextHopDir(from, to));
        BLITZ_ASSERT(n.has_value(),
                     "XY routing walked off the mesh edge");
        return *n;
    }

  private:
    /** floor(id / width) as a multiply-shift; exact (see ctor). */
    static constexpr unsigned kRowShift = 47;

    int
    axisDelta(int from, int to, int span) const
    {
        // Signed steps along one axis; in wrap mode pick the shorter
        // way around the ring (ties resolve positive).
        int delta = to - from;
        if (!wrap_)
            return delta;
        int wrapped = delta > 0 ? delta - span : delta + span;
        return std::abs(wrapped) < std::abs(delta) ? wrapped : delta;
    }

    int width_;
    int height_;
    bool wrap_;
    std::uint64_t rowMagic_;
};

} // namespace blitz::noc

#endif // BLITZ_NOC_TOPOLOGY_HPP
