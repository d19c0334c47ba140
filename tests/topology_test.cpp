/**
 * @file
 * Unit and property tests for mesh/torus topology arithmetic.
 */

#include <gtest/gtest.h>

#include "noc/topology.hpp"
#include "sim/logging.hpp"
#include "sim/rng.hpp"

namespace {

using namespace blitz;
using noc::Coord;
using noc::Dir;
using noc::Topology;

TEST(Topology, CoordinateRoundTrip)
{
    Topology t(4, 3);
    EXPECT_EQ(t.size(), 12u);
    for (noc::NodeId id = 0; id < t.size(); ++id)
        EXPECT_EQ(t.idOf(t.coordOf(id)), id);
    EXPECT_EQ(t.coordOf(0), (Coord{0, 0}));
    EXPECT_EQ(t.coordOf(5), (Coord{1, 1}));
    EXPECT_EQ(t.coordOf(11), (Coord{3, 2}));
}

TEST(Topology, MeshEdgeHasNoNeighbor)
{
    Topology t(3, 3, /*wrap=*/false);
    EXPECT_FALSE(t.neighbor(0, Dir::North).has_value());
    EXPECT_FALSE(t.neighbor(0, Dir::West).has_value());
    EXPECT_EQ(t.neighbor(0, Dir::East), 1u);
    EXPECT_EQ(t.neighbor(0, Dir::South), 3u);
    EXPECT_FALSE(t.neighbor(8, Dir::South).has_value());
    EXPECT_FALSE(t.neighbor(8, Dir::East).has_value());
}

TEST(Topology, TorusWrapsAround)
{
    Topology t(3, 3, /*wrap=*/true);
    // Fig. 5: tile 0's neighbors are 1, 3 and the wrapped 2, 6.
    EXPECT_EQ(t.neighbor(0, Dir::West), 2u);
    EXPECT_EQ(t.neighbor(0, Dir::North), 6u);
    auto n = t.neighbors(0);
    EXPECT_EQ(n.size(), 4u);
    EXPECT_NE(std::find(n.begin(), n.end(), 1u), n.end());
    EXPECT_NE(std::find(n.begin(), n.end(), 2u), n.end());
    EXPECT_NE(std::find(n.begin(), n.end(), 3u), n.end());
    EXPECT_NE(std::find(n.begin(), n.end(), 6u), n.end());
}

TEST(Topology, CornerTileNeighborCounts)
{
    Topology mesh(4, 4, false);
    EXPECT_EQ(mesh.neighbors(0).size(), 2u);  // corner
    EXPECT_EQ(mesh.neighbors(1).size(), 3u);  // edge
    EXPECT_EQ(mesh.neighbors(5).size(), 4u);  // interior
    Topology torus(4, 4, true);
    for (noc::NodeId id = 0; id < torus.size(); ++id)
        EXPECT_EQ(torus.neighbors(id).size(), 4u);
}

TEST(Topology, TwoWideTorusDeduplicatesNeighbors)
{
    // On a 2-wide wrapped dimension, east and west reach the same tile.
    Topology t(2, 2, true);
    auto n = t.neighbors(0);
    EXPECT_EQ(n.size(), 2u); // tiles 1 and 2, each once
}

TEST(Topology, ManhattanDistanceMesh)
{
    Topology t(5, 5, false);
    EXPECT_EQ(t.distance(0, 24), 8);
    EXPECT_EQ(t.distance(0, 4), 4);
    EXPECT_EQ(t.distance(12, 12), 0);
}

TEST(Topology, TorusDistanceTakesShortcut)
{
    Topology t(5, 5, true);
    EXPECT_EQ(t.distance(0, 4), 1);  // wrap west
    EXPECT_EQ(t.distance(0, 24), 2); // wrap both axes
    EXPECT_EQ(t.distance(0, 2), 2);  // no shortcut for middle
}

TEST(Topology, DistanceIsSymmetric)
{
    for (bool wrap : {false, true}) {
        Topology t(6, 4, wrap);
        sim::Rng rng(5);
        for (int i = 0; i < 200; ++i) {
            auto a = static_cast<noc::NodeId>(rng.below(t.size()));
            auto b = static_cast<noc::NodeId>(rng.below(t.size()));
            EXPECT_EQ(t.distance(a, b), t.distance(b, a));
        }
    }
}

/** Property: XY routing reaches the destination in exactly
 *  distance(a, b) hops, on meshes and tori alike. */
class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(RoutingProperty, RouteLengthEqualsDistance)
{
    auto [w, h, wrap] = GetParam();
    Topology t(w, h, wrap);
    sim::Rng rng(42);
    for (int trial = 0; trial < 300; ++trial) {
        auto src = static_cast<noc::NodeId>(rng.below(t.size()));
        auto dst = static_cast<noc::NodeId>(rng.below(t.size()));
        if (src == dst)
            continue;
        int hops = 0;
        noc::NodeId at = src;
        while (at != dst) {
            at = t.nextHop(at, dst);
            ASSERT_LE(++hops, t.distance(src, dst))
                << "route exceeded the Manhattan distance";
        }
        EXPECT_EQ(hops, t.distance(src, dst));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, RoutingProperty,
    ::testing::Values(std::make_tuple(3, 3, false),
                      std::make_tuple(3, 3, true),
                      std::make_tuple(8, 8, false),
                      std::make_tuple(8, 8, true),
                      std::make_tuple(7, 2, true),
                      std::make_tuple(1, 9, false),
                      std::make_tuple(20, 20, true)));

TEST(Topology, XyRoutingGoesXFirst)
{
    Topology t(4, 4, false);
    // 0 -> 15 must move east before south.
    EXPECT_EQ(t.nextHopDir(0, 15), Dir::East);
    EXPECT_EQ(t.nextHop(0, 15), 1u);
    // Same column: straight south.
    EXPECT_EQ(t.nextHopDir(0, 12), Dir::South);
}

TEST(Topology, RoutingToSelfPanics)
{
    Topology t(3, 3);
    EXPECT_THROW(t.nextHopDir(4, 4), sim::PanicError);
}

TEST(Topology, InvalidDimensionsFatal)
{
    EXPECT_THROW(Topology(0, 3), sim::FatalError);
    EXPECT_THROW(Topology(3, -1), sim::FatalError);
}

TEST(Topology, OutOfRangeAccessPanics)
{
    Topology t(2, 2);
    EXPECT_THROW(t.coordOf(4), sim::PanicError);
    EXPECT_THROW(t.idOf(Coord{2, 0}), sim::PanicError);
}

TEST(Topology, SquareFactory)
{
    auto t = Topology::square(6, true);
    EXPECT_EQ(t.width(), 6);
    EXPECT_EQ(t.height(), 6);
    EXPECT_TRUE(t.wrap());
}

TEST(Topology, DirNames)
{
    EXPECT_STREQ(noc::dirName(Dir::North), "N");
    EXPECT_STREQ(noc::dirName(Dir::South), "S");
    EXPECT_STREQ(noc::dirName(Dir::East), "E");
    EXPECT_STREQ(noc::dirName(Dir::West), "W");
}

} // namespace
