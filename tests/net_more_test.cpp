//===- net_more_test.cpp - Network edge cases ------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/net/Network.h"

#include <gtest/gtest.h>

using namespace promises;
using namespace promises::net;
using namespace promises::sim;

namespace {

wire::Bytes bytes(size_t N) { return wire::Bytes(N, 0x5a); }

TEST(NetMore, TxFreeAtExposesBacklog) {
  Simulation S;
  NetConfig C;
  C.SendKernelOverhead = usec(100);
  C.PerByte = 0;
  SimNetwork Net(S, C);
  NodeId A = Net.addNode("a");
  NodeId B = Net.addNode("b");
  Address Dst = Net.bind(B, [](Datagram) {});
  Address Src = Net.bind(A, [](Datagram) {});
  EXPECT_EQ(Net.txFreeAt(A), 0u);
  for (int I = 0; I < 5; ++I)
    Net.send(Src, Dst, bytes(1));
  // Five datagrams at 100us each of kernel overhead queue up.
  EXPECT_EQ(Net.txFreeAt(A), usec(500));
  S.run();
}

TEST(NetMore, SelfSendWorks) {
  // Two guardians on one node talk through the loopback-ish path: same
  // cost model applies.
  Simulation S;
  SimNetwork Net(S, NetConfig{});
  NodeId A = Net.addNode("a");
  int Got = 0;
  Address P1 = Net.bind(A, [&](Datagram) { ++Got; });
  Address P2 = Net.bind(A, [](Datagram) {});
  Net.send(P2, P1, bytes(8));
  S.run();
  EXPECT_EQ(Got, 1);
}

TEST(NetMore, HeaderBytesChargedPerDatagram) {
  Simulation S;
  NetConfig C;
  C.HeaderBytes = 32;
  SimNetwork Net(S, C);
  NodeId A = Net.addNode("a");
  NodeId B = Net.addNode("b");
  Address Dst = Net.bind(B, [](Datagram) {});
  Address Src = Net.bind(A, [](Datagram) {});
  Net.send(Src, Dst, bytes(10));
  Net.send(Src, Dst, bytes(0));
  S.run();
  EXPECT_EQ(Net.counters().BytesSent, 10u + 32u + 0u + 32u);
}

TEST(NetMore, ReceiverRxPathSerializes) {
  // Two senders to one receiver: the receive path is a serial resource.
  Simulation S;
  NetConfig C;
  C.SendKernelOverhead = 0;
  C.RecvKernelOverhead = usec(100);
  C.PerByte = 0;
  C.Propagation = 0;
  SimNetwork Net(S, C);
  NodeId A = Net.addNode("a");
  NodeId B = Net.addNode("b");
  NodeId R = Net.addNode("r");
  std::vector<Time> Deliveries;
  Address Dst = Net.bind(R, [&](Datagram) { Deliveries.push_back(S.now()); });
  Address SA = Net.bind(A, [](Datagram) {});
  Address SB = Net.bind(B, [](Datagram) {});
  Net.send(SA, Dst, bytes(1));
  Net.send(SB, Dst, bytes(1));
  S.run();
  ASSERT_EQ(Deliveries.size(), 2u);
  EXPECT_EQ(Deliveries[0], usec(100));
  EXPECT_EQ(Deliveries[1], usec(200)); // Queued behind the first.
}

TEST(NetMore, LossAppliesPerCopyOfDuplicates) {
  // With dup=1 and loss=0 both copies arrive; exact duplicate counting.
  Simulation S;
  NetConfig C;
  C.DupRate = 1.0;
  SimNetwork Net(S, C);
  NodeId A = Net.addNode("a");
  NodeId B = Net.addNode("b");
  int Got = 0;
  Address Dst = Net.bind(B, [&](Datagram) { ++Got; });
  Address Src = Net.bind(A, [](Datagram) {});
  for (int I = 0; I < 5; ++I)
    Net.send(Src, Dst, bytes(1));
  S.run();
  EXPECT_EQ(Got, 10);
  EXPECT_EQ(Net.counters().DatagramsDelivered, 10u);
  // Sent counts logical sends, not copies.
  EXPECT_EQ(Net.counters().DatagramsSent, 5u);
}

TEST(NetMore, StaleDatagramCannotLandInNewIncarnation) {
  // Regression: before restart epochs a datagram sent to the previous
  // incarnation could be delivered to whatever rebound the reused port
  // after a crash/restart. It must be dropped (and counted) instead.
  Simulation S;
  NetConfig C; // Default 2ms propagation keeps it in flight past 1ms.
  SimNetwork Net(S, C);
  NodeId A = Net.addNode("a");
  NodeId B = Net.addNode("b");
  int OldGot = 0, NewGot = 0;
  Address OldDst = Net.bind(B, [&](Datagram) { ++OldGot; });
  Address Src = Net.bind(A, [](Datagram) {});
  Net.send(Src, OldDst, bytes(4));
  S.schedule(msec(1), [&] {
    Net.crash(B);
    Net.restart(B);
    Address NewDst = Net.bind(B, [&](Datagram) { ++NewGot; });
    EXPECT_EQ(NewDst.Port, OldDst.Port); // Same port, new epoch.
  });
  S.run();
  EXPECT_EQ(OldGot, 0);
  EXPECT_EQ(NewGot, 0);
  EXPECT_EQ(Net.staleEpochDrops(), 1u);
  // The drop is accounted: send/deliver/drop conservation still holds.
  const NetCounters &NC = Net.counters();
  EXPECT_EQ(NC.DatagramsSent + NC.DatagramsDuplicated,
            NC.DatagramsDelivered + NC.DatagramsDropped);
}

} // namespace
