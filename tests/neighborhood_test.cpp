/**
 * @file
 * Tests for logical neighborhoods over managed tile subsets.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "coin/neighborhood.hpp"
#include "soc/config.hpp"

namespace {

using namespace blitz;

std::vector<bool>
flags(std::size_t n, std::initializer_list<noc::NodeId> managed)
{
    std::vector<bool> f(n, false);
    for (noc::NodeId id : managed)
        f[id] = true;
    return f;
}

/** Random-pairing partners: members minus @p self minus neighbors. */
std::vector<noc::NodeId>
farOf(const coin::Neighborhood &hood, noc::NodeId self)
{
    std::vector<noc::NodeId> far;
    if (!hood.members)
        return far;
    for (noc::NodeId m : *hood.members) {
        if (m != self && std::find(hood.neighbors.begin(),
                                   hood.neighbors.end(),
                                   m) == hood.neighbors.end())
            far.push_back(m);
    }
    return far;
}

TEST(Neighborhood, FullyManagedMatchesTorus)
{
    noc::Topology topo(3, 3, false);
    std::vector<bool> all(topo.size(), true);
    auto hoods = coin::managedNeighborhoods(topo, all);
    noc::Topology torus(3, 3, true);
    for (noc::NodeId id = 0; id < topo.size(); ++id) {
        auto expected = torus.neighbors(id);
        auto got = hoods[id].neighbors;
        std::sort(expected.begin(), expected.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << "tile " << id;
    }
}

TEST(Neighborhood, WalksSkipUnmanagedTiles)
{
    // Row of 5 with the middle tile unmanaged: 1 and 3 see each other
    // by walking across tile 2.
    noc::Topology topo(5, 1, false);
    auto hoods =
        coin::managedNeighborhoods(topo, flags(5, {1u, 3u}));
    EXPECT_EQ(hoods[1].neighbors, (std::vector<noc::NodeId>{3u}));
    EXPECT_EQ(hoods[3].neighbors, (std::vector<noc::NodeId>{1u}));
}

TEST(Neighborhood, UnmanagedTilesGetEmptyLists)
{
    noc::Topology topo(3, 3, false);
    auto hoods = coin::managedNeighborhoods(topo, flags(9, {0u, 8u}));
    EXPECT_TRUE(hoods[4].neighbors.empty());
    EXPECT_TRUE(farOf(hoods[4], 4).empty());
}

TEST(Neighborhood, SingleManagedTileHasNoPartners)
{
    noc::Topology topo(3, 3, false);
    auto hoods = coin::managedNeighborhoods(topo, flags(9, {4u}));
    EXPECT_TRUE(hoods[4].neighbors.empty());
}

TEST(Neighborhood, DiagonalPairFallsBackToNearest)
{
    // Tiles 0 and 4 on a 3x3 share no row/column in the managed set?
    // 0 is (0,0), 4 is (1,1): no shared axis, so the directional walk
    // finds nothing and the nearest-fallback must connect them.
    noc::Topology topo(3, 3, false);
    auto hoods = coin::managedNeighborhoods(topo, flags(9, {0u, 4u}));
    EXPECT_EQ(hoods[0].neighbors, (std::vector<noc::NodeId>{4u}));
    EXPECT_EQ(hoods[4].neighbors, (std::vector<noc::NodeId>{0u}));
}

TEST(Neighborhood, FarListIsManagedNonNeighbors)
{
    noc::Topology topo(4, 4, false);
    auto managed = flags(16, {0u, 1u, 2u, 3u, 12u, 13u, 14u, 15u});
    auto hoods = coin::managedNeighborhoods(topo, managed);
    for (noc::NodeId id : {0u, 1u, 2u, 3u, 12u, 13u, 14u, 15u}) {
        for (noc::NodeId f : farOf(hoods[id], id)) {
            EXPECT_TRUE(managed[f]);
            EXPECT_EQ(std::find(hoods[id].neighbors.begin(),
                                hoods[id].neighbors.end(), f),
                      hoods[id].neighbors.end());
        }
        EXPECT_EQ(hoods[id].neighbors.size() + farOf(hoods[id], id).size(),
                  7u); // every other managed tile is one or the other
    }
}

TEST(Neighborhood, SiliconPmClusterIsConnected)
{
    // The 6x6 prototype's 10-tile PM cluster: every managed tile must
    // have at least two logical neighbors and reach all others.
    soc::SocConfig cfg = soc::make6x6SiliconSoc();
    noc::Topology topo(cfg.width, cfg.height, false);
    std::vector<bool> managed(cfg.size(), false);
    for (noc::NodeId id : cfg.managedAccelerators())
        managed[id] = true;
    auto hoods = coin::managedNeighborhoods(topo, managed);

    for (noc::NodeId id : cfg.managedAccelerators()) {
        EXPECT_GE(hoods[id].neighbors.size(), 2u) << "tile " << id;
        EXPECT_EQ(hoods[id].neighbors.size() + farOf(hoods[id], id).size(),
                  9u);
    }

    // Reachability via neighbor edges only (ignoring random pairing).
    std::vector<bool> seen(cfg.size(), false);
    std::vector<noc::NodeId> stack{cfg.managedAccelerators().front()};
    seen[stack.front()] = true;
    std::size_t count = 0;
    while (!stack.empty()) {
        noc::NodeId at = stack.back();
        stack.pop_back();
        ++count;
        for (noc::NodeId n : hoods[at].neighbors) {
            if (!seen[n]) {
                seen[n] = true;
                stack.push_back(n);
            }
        }
    }
    EXPECT_EQ(count, cfg.managedAccelerators().size());
}

TEST(Neighborhood, Av3x3ClusterShape)
{
    soc::SocConfig cfg = soc::make3x3AvSoc();
    noc::Topology topo(cfg.width, cfg.height, false);
    std::vector<bool> managed(cfg.size(), false);
    for (noc::NodeId id : cfg.managedAccelerators())
        managed[id] = true;
    auto hoods = coin::managedNeighborhoods(topo, managed);
    // All 6 accelerators participate; each sees only managed tiles.
    for (noc::NodeId id : cfg.managedAccelerators()) {
        EXPECT_FALSE(hoods[id].neighbors.empty());
        for (noc::NodeId n : hoods[id].neighbors)
            EXPECT_TRUE(managed[n]);
    }
}

TEST(Neighborhood, SizeMismatchPanics)
{
    noc::Topology topo(2, 2, false);
    std::vector<bool> wrong(3, true);
    EXPECT_THROW(coin::managedNeighborhoods(topo, wrong),
                 sim::PanicError);
}

} // namespace
