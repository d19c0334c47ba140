/**
 * @file
 * Tests for the packet-switched mesh network: delivery, latency,
 * ordering, contention, and per-plane independence.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/network.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace blitz;

struct NetFixture : ::testing::Test
{
    sim::EventQueue eq;
    noc::Topology topo{4, 4, false};
    noc::Network net{eq, topo};

    noc::Packet
    makePacket(noc::NodeId src, noc::NodeId dst,
               noc::Plane plane = noc::Plane::Service)
    {
        noc::Packet p;
        p.src = src;
        p.dst = dst;
        p.plane = plane;
        p.type = noc::MsgType::Generic;
        return p;
    }
};

TEST_F(NetFixture, DeliversToHandler)
{
    int got = 0;
    net.setHandler(5, [&](const noc::Packet &p) {
        ++got;
        EXPECT_EQ(p.src, 0u);
        EXPECT_EQ(p.dst, 5u);
    });
    net.send(makePacket(0, 5));
    eq.runUntil();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(net.packetsSent(), 1u);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

TEST_F(NetFixture, LatencyIsHopsPlusEjection)
{
    sim::Tick arrival = 0;
    net.setHandler(15, [&](const noc::Packet &) { arrival = eq.now(); });
    net.send(makePacket(0, 15)); // distance 6 on a 4x4 mesh
    eq.runUntil();
    EXPECT_EQ(arrival, 7u); // 6 router hops + 1 ejection cycle
    EXPECT_EQ(net.totalHops(), 6u);
    EXPECT_DOUBLE_EQ(net.latency().mean(), 7.0);
}

TEST_F(NetFixture, SelfSendTakesOneEjectionCycle)
{
    sim::Tick arrival = 0;
    net.setHandler(3, [&](const noc::Packet &) { arrival = eq.now(); });
    net.send(makePacket(3, 3));
    eq.runUntil();
    EXPECT_EQ(arrival, 1u);
    EXPECT_EQ(net.totalHops(), 0u);
}

TEST_F(NetFixture, PerFlowOrderingPreserved)
{
    std::vector<std::int64_t> got;
    net.setHandler(9, [&](const noc::Packet &p) {
        got.push_back(p.payload[0]);
    });
    for (std::int64_t i = 0; i < 20; ++i) {
        auto p = makePacket(0, 9);
        p.payload[0] = i;
        net.send(p);
    }
    eq.runUntil();
    ASSERT_EQ(got.size(), 20u);
    for (std::int64_t i = 0; i < 20; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_F(NetFixture, LinkContentionSerializes)
{
    // Two packets injected the same tick over the same first link:
    // the second must arrive exactly one cycle later.
    std::vector<sim::Tick> arrivals;
    net.setHandler(3, [&](const noc::Packet &) {
        arrivals.push_back(eq.now());
    });
    net.send(makePacket(0, 3));
    net.send(makePacket(0, 3));
    eq.runUntil();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1], arrivals[0] + 1);
}

TEST_F(NetFixture, DifferentPlanesDoNotContend)
{
    std::vector<sim::Tick> arrivals;
    net.setHandler(3, [&](const noc::Packet &) {
        arrivals.push_back(eq.now());
    });
    net.send(makePacket(0, 3, noc::Plane::Service));
    net.send(makePacket(0, 3, noc::Plane::Dma0));
    eq.runUntil();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], arrivals[1]); // independent planes
}

TEST_F(NetFixture, CrossTrafficDelaysSharedLink)
{
    // 0->2 and 1->2 share the link 1->2 (XY routing goes east along
    // row 0); the packets must serialize on it.
    std::vector<sim::Tick> arrivals;
    net.setHandler(2, [&](const noc::Packet &) {
        arrivals.push_back(eq.now());
    });
    net.send(makePacket(0, 2));
    net.send(makePacket(1, 2));
    eq.runUntil();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_NE(arrivals[0], arrivals[1]);
}

TEST_F(NetFixture, SequenceNumbersAreUniqueAndMonotonic)
{
    auto s1 = net.send(makePacket(0, 1));
    auto s2 = net.send(makePacket(2, 3));
    EXPECT_LT(s1, s2);
}

TEST_F(NetFixture, MissingHandlerDropsSilently)
{
    net.send(makePacket(0, 7));
    EXPECT_NO_THROW(eq.runUntil());
    EXPECT_EQ(net.packetsDelivered(), 1u); // counted, nothing to invoke
}

TEST_F(NetFixture, OutOfRangeEndpointsPanic)
{
    EXPECT_THROW(net.send(makePacket(0, 99)), sim::PanicError);
}

TEST(Network, WrappedTopologyRoutesShortWay)
{
    sim::EventQueue eq;
    noc::Network net(eq, noc::Topology(5, 5, true));
    sim::Tick arrival = 0;
    net.setHandler(4, [&](const noc::Packet &) { arrival = eq.now(); });
    noc::Packet p;
    p.src = 0;
    p.dst = 4; // one hop west via wrap
    net.send(p);
    eq.runUntil();
    EXPECT_EQ(arrival, 2u); // 1 hop + ejection
}

TEST(Network, HopLatencyScalesDelivery)
{
    sim::EventQueue eq;
    noc::Network net(eq, noc::Topology(4, 1, false), /*hopLatency=*/3);
    sim::Tick arrival = 0;
    net.setHandler(3, [&](const noc::Packet &) { arrival = eq.now(); });
    noc::Packet p;
    p.src = 0;
    p.dst = 3;
    net.send(p);
    eq.runUntil();
    EXPECT_EQ(arrival, 12u); // (3 hops + eject) * 3 cycles
}

TEST(Network, MsgTypeNames)
{
    EXPECT_STREQ(noc::msgTypeName(noc::MsgType::CoinStatus),
                 "CoinStatus");
    EXPECT_STREQ(noc::msgTypeName(noc::MsgType::CoinUpdate),
                 "CoinUpdate");
    EXPECT_STREQ(noc::msgTypeName(noc::MsgType::RegWrite), "RegWrite");
}

} // namespace
