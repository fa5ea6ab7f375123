//===- net_network_test.cpp - Simulated network tests ---------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/net/Network.h"

#include <gtest/gtest.h>

#include <vector>

using namespace promises;
using namespace promises::net;
using namespace promises::sim;

namespace {

wire::Bytes bytesOf(const std::string &S) {
  return wire::Bytes(S.begin(), S.end());
}

std::string stringOf(const wire::Bytes &B) {
  return std::string(B.begin(), B.end());
}

struct NetFixture : ::testing::Test {
  Simulation S;
  NetConfig Cfg;
  void buildNet() {
    Net = std::make_unique<SimNetwork>(S, Cfg);
    A = Net->addNode("a");
    B = Net->addNode("b");
  }
  std::unique_ptr<SimNetwork> Net;
  NodeId A = 0, B = 0;
};

TEST_F(NetFixture, DatagramIsDeliveredWithPayload) {
  buildNet();
  std::vector<std::string> Got;
  Address Dst = Net->bind(B, [&](Datagram D) { Got.push_back(stringOf(D.Payload)); });
  Address Src = Net->bind(A, [](Datagram) {});
  Net->send(Src, Dst, bytesOf("hello"));
  S.run();
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0], "hello");
  EXPECT_EQ(Net->counters().DatagramsDelivered, 1u);
}

TEST_F(NetFixture, DeliveryTimeMatchesCostModel) {
  Cfg.SendKernelOverhead = usec(50);
  Cfg.RecvKernelOverhead = usec(20);
  Cfg.PerByte = nsec(100);
  Cfg.Propagation = msec(2);
  Cfg.HeaderBytes = 32;
  buildNet();
  Time DeliveredAt = 0;
  Address Dst = Net->bind(B, [&](Datagram) { DeliveredAt = S.now(); });
  Address Src = Net->bind(A, [](Datagram) {});
  Net->send(Src, Dst, bytesOf("12345678")); // 8 payload + 32 header = 40B.
  S.run();
  Time WireCost = 40 * nsec(100); // 4 us.
  Time Expected = usec(50) + WireCost      // tx busy
                  + msec(2)                // propagation
                  + usec(20) + WireCost;   // rx busy
  EXPECT_EQ(DeliveredAt, Expected);
}

TEST_F(NetFixture, SenderTxPathSerializesBackToBackSends) {
  Cfg.Propagation = 0;
  Cfg.RecvKernelOverhead = 0;
  Cfg.PerByte = 0;
  Cfg.SendKernelOverhead = usec(50);
  buildNet();
  std::vector<Time> Arrivals;
  Address Dst = Net->bind(B, [&](Datagram) { Arrivals.push_back(S.now()); });
  Address Src = Net->bind(A, [](Datagram) {});
  // Three sends at t=0 must occupy the tx path serially.
  Net->send(Src, Dst, bytesOf("x"));
  Net->send(Src, Dst, bytesOf("y"));
  Net->send(Src, Dst, bytesOf("z"));
  S.run();
  ASSERT_EQ(Arrivals.size(), 3u);
  EXPECT_EQ(Arrivals[0], usec(50));
  EXPECT_EQ(Arrivals[1], usec(100));
  EXPECT_EQ(Arrivals[2], usec(150));
}

TEST_F(NetFixture, OneBigMessageIsCheaperThanManySmall) {
  // The amortization at the heart of the paper: N small datagrams pay N
  // kernel overheads; one batched datagram pays one.
  buildNet();
  Time LastSmall = 0, LastBig = 0;
  Address DstSmall = Net->bind(B, [&](Datagram) { LastSmall = S.now(); });
  Address DstBig = Net->bind(B, [&](Datagram) { LastBig = S.now(); });
  Address Src = Net->bind(A, [](Datagram) {});
  for (int I = 0; I < 10; ++I)
    Net->send(Src, DstSmall, bytesOf("0123456789"));
  S.run();
  Time SmallDone = LastSmall;

  Simulation S2;
  SimNetwork Net2(S2, Cfg);
  NodeId A2 = Net2.addNode("a");
  NodeId B2 = Net2.addNode("b");
  Address Dst2 = Net2.bind(B2, [&](Datagram) { LastBig = S2.now(); });
  Address Src2 = Net2.bind(A2, [](Datagram) {});
  Net2.send(Src2, Dst2, bytesOf(std::string(100, 'x'))); // Same payload total.
  S2.run();
  (void)DstBig;
  EXPECT_LT(LastBig, SmallDone);
}

TEST_F(NetFixture, LossDropsDatagrams) {
  Cfg.LossRate = 1.0;
  buildNet();
  int Got = 0;
  Address Dst = Net->bind(B, [&](Datagram) { ++Got; });
  Address Src = Net->bind(A, [](Datagram) {});
  for (int I = 0; I < 5; ++I)
    Net->send(Src, Dst, bytesOf("x"));
  S.run();
  EXPECT_EQ(Got, 0);
  EXPECT_EQ(Net->counters().DatagramsDropped, 5u);
  EXPECT_EQ(Net->counters().DatagramsSent, 5u);
}

TEST_F(NetFixture, PartialLossIsDeterministicPerSeed) {
  Cfg.LossRate = 0.5;
  Cfg.Seed = 42;
  buildNet();
  int Got = 0;
  Address Dst = Net->bind(B, [&](Datagram) { ++Got; });
  Address Src = Net->bind(A, [](Datagram) {});
  for (int I = 0; I < 100; ++I)
    Net->send(Src, Dst, bytesOf("x"));
  S.run();
  EXPECT_GT(Got, 20);
  EXPECT_LT(Got, 80);

  // Same seed, same outcome.
  Simulation S2;
  SimNetwork Net2(S2, Cfg);
  NodeId A2 = Net2.addNode("a");
  NodeId B2 = Net2.addNode("b");
  int Got2 = 0;
  Address Dst2 = Net2.bind(B2, [&](Datagram) { ++Got2; });
  Address Src2 = Net2.bind(A2, [](Datagram) {});
  for (int I = 0; I < 100; ++I)
    Net2.send(Src2, Dst2, bytesOf("x"));
  S2.run();
  EXPECT_EQ(Got, Got2);
}

TEST_F(NetFixture, DuplicationDeliversTwice) {
  Cfg.DupRate = 1.0;
  buildNet();
  int Got = 0;
  Address Dst = Net->bind(B, [&](Datagram) { ++Got; });
  Address Src = Net->bind(A, [](Datagram) {});
  Net->send(Src, Dst, bytesOf("x"));
  S.run();
  EXPECT_EQ(Got, 2);
}

TEST_F(NetFixture, JitterCanReorder) {
  Cfg.JitterMax = msec(10);
  Cfg.Seed = 7;
  buildNet();
  std::vector<std::string> Order;
  Address Dst = Net->bind(B, [&](Datagram D) { Order.push_back(stringOf(D.Payload)); });
  Address Src = Net->bind(A, [](Datagram) {});
  for (int I = 0; I < 20; ++I)
    Net->send(Src, Dst, bytesOf(std::to_string(I)));
  S.run();
  ASSERT_EQ(Order.size(), 20u);
  bool Reordered = false;
  for (size_t I = 1; I < Order.size(); ++I)
    if (std::stoi(Order[I]) < std::stoi(Order[I - 1]))
      Reordered = true;
  EXPECT_TRUE(Reordered) << "jitter should have reordered some datagrams";
}

TEST_F(NetFixture, PartitionCutsBothDirections) {
  buildNet();
  int Got = 0;
  Address DstB = Net->bind(B, [&](Datagram) { ++Got; });
  Address DstA = Net->bind(A, [&](Datagram) { ++Got; });
  Net->setPartitioned(A, B, true);
  Net->send(DstA, DstB, bytesOf("x"));
  Net->send(DstB, DstA, bytesOf("y"));
  S.run();
  EXPECT_EQ(Got, 0);
  Net->setPartitioned(A, B, false);
  Net->send(DstA, DstB, bytesOf("x"));
  S.run();
  EXPECT_EQ(Got, 1);
}

TEST_F(NetFixture, PartitionDuringFlightDropsAtArrival) {
  buildNet();
  int Got = 0;
  Address Dst = Net->bind(B, [&](Datagram) { ++Got; });
  Address Src = Net->bind(A, [](Datagram) {});
  Net->send(Src, Dst, bytesOf("x"));
  // Cut the link while the datagram is in flight.
  S.schedule(usec(100), [&] { Net->setPartitioned(A, B, true); });
  S.run();
  EXPECT_EQ(Got, 0);
}

TEST_F(NetFixture, LinkLossOverridesGlobalRate) {
  Cfg.LossRate = 0.0;
  buildNet();
  NodeId C = Net->addNode("c");
  Net->setLinkLoss(A, B, 1.0);
  int GotB = 0, GotC = 0;
  Address DstB = Net->bind(B, [&](Datagram) { ++GotB; });
  Address DstC = Net->bind(C, [&](Datagram) { ++GotC; });
  Address Src = Net->bind(A, [](Datagram) {});
  Net->send(Src, DstB, bytesOf("x"));
  Net->send(Src, DstC, bytesOf("x"));
  S.run();
  EXPECT_EQ(GotB, 0);
  EXPECT_EQ(GotC, 1);
}

TEST_F(NetFixture, PerNodeCountersTrackSends) {
  buildNet();
  Address Dst = Net->bind(B, [](Datagram) {});
  Address Src = Net->bind(A, [](Datagram) {});
  Net->send(Src, Dst, bytesOf("abc"));
  S.run();
  EXPECT_EQ(Net->counters(A).DatagramsSent, 1u);
  EXPECT_EQ(Net->counters(A).BytesSent, 3u + Cfg.HeaderBytes);
  EXPECT_EQ(Net->counters(B).DatagramsDelivered, 1u);
}

TEST_F(NetFixture, AddressCodecRoundTrips) {
  Address Addr{3, 17};
  auto Enc = wire::encodeToBytes(Addr);
  ASSERT_TRUE(Enc.has_value());
  auto Dec = wire::decodeFromBytes<Address>(*Enc);
  ASSERT_TRUE(Dec.has_value());
  EXPECT_EQ(*Dec, Addr);
}

} // namespace
