//===- net_lifecycle_test.cpp - The node lifecycle on both backends -------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Node names, bindings, crash observers, restart epochs and drop
// accounting live once in the net::Network core, so one contract holds on
// the simulator and over real UDP sockets alike.
//
//===----------------------------------------------------------------------===//

#include "promises/net/UdpNetwork.h"

#include <gtest/gtest.h>

using namespace promises;
using namespace promises::net;
using namespace promises::sim;

namespace {

wire::Bytes bytes(size_t N) { return wire::Bytes(N, 0x5a); }

template <class Backend> struct NetLifecycle : ::testing::Test {
  Simulation S;
  Backend Net{S};

  /// Runs until every sent copy is delivered or dropped (or a second has
  /// passed). Over sockets run() returns at quiescence, before the kernel
  /// has handed the datagrams over, so this polls in bounded slices.
  void settle() {
    for (int I = 0; I != 100; ++I) {
      NetCounters C = Net.counters();
      if (C.DatagramsSent + C.DatagramsDuplicated ==
          C.DatagramsDelivered + C.DatagramsDropped)
        return;
      S.runFor(msec(10));
    }
  }
};

using Backends = ::testing::Types<SimNetwork, UdpNetwork>;
TYPED_TEST_SUITE(NetLifecycle, Backends);

TYPED_TEST(NetLifecycle, NodeNamesAreKept) {
  NodeId A = this->Net.addNode("alpha");
  NodeId B = this->Net.addNode("beta");
  EXPECT_EQ(this->Net.nodeName(A), "alpha");
  EXPECT_EQ(this->Net.nodeName(B), "beta");
}

TYPED_TEST(NetLifecycle, CrashObserverFiresOnce) {
  NodeId B = this->Net.addNode("b");
  int Fired = 0;
  this->Net.onCrash(B, [&] { ++Fired; });
  this->Net.crash(B);
  this->Net.crash(B); // Idempotent.
  EXPECT_EQ(Fired, 1);
}

TYPED_TEST(NetLifecycle, CrashObserverRegisteredPerIncarnation) {
  NodeId A = this->Net.addNode("a");
  int FirstLife = 0, SecondLife = 0;
  this->Net.onCrash(A, [&] { ++FirstLife; });
  this->Net.crash(A);
  EXPECT_EQ(FirstLife, 1);
  this->Net.restart(A);
  this->Net.onCrash(A, [&] { ++SecondLife; });
  this->Net.crash(A);
  EXPECT_EQ(FirstLife, 1); // The old observer was consumed.
  EXPECT_EQ(SecondLife, 1);
}

TYPED_TEST(NetLifecycle, RestartBumpsEpochAndReusesPorts) {
  NodeId A = this->Net.addNode("a");
  Address First = this->Net.bind(A, [](Datagram) {});
  EXPECT_EQ(this->Net.nodeEpoch(A), 0u);
  this->Net.crash(A);
  this->Net.restart(A);
  Address Second = this->Net.bind(A, [](Datagram) {});
  // A rebooted node reuses its port space (a realistic reboot allocates
  // from port 1 again) but lives in a new epoch, so the two
  // incarnations' addresses never compare equal.
  EXPECT_EQ(Second.Port, First.Port);
  EXPECT_EQ(First.Epoch, 0u);
  EXPECT_EQ(Second.Epoch, 1u);
  EXPECT_EQ(this->Net.nodeEpoch(A), 1u);
  EXPECT_FALSE(First == Second);
}

TYPED_TEST(NetLifecycle, UnboundPortCountsAsDrop) {
  NodeId A = this->Net.addNode("a");
  NodeId B = this->Net.addNode("b");
  Address Dst = this->Net.bind(B, [](Datagram) {});
  Address Src = this->Net.bind(A, [](Datagram) {});
  this->Net.unbind(Dst);
  this->Net.send(Src, Dst, bytes(1));
  this->settle();
  EXPECT_EQ(this->Net.counters().DatagramsDelivered, 0u);
  EXPECT_EQ(this->Net.counters().DatagramsDropped, 1u);
}

TYPED_TEST(NetLifecycle, CrashedReceiverDropsTraffic) {
  NodeId A = this->Net.addNode("a");
  NodeId B = this->Net.addNode("b");
  int Got = 0;
  Address Dst = this->Net.bind(B, [&](Datagram) { ++Got; });
  Address Src = this->Net.bind(A, [](Datagram) {});
  this->Net.crash(B);
  EXPECT_FALSE(this->Net.isUp(B));
  this->Net.send(Src, Dst, bytes(1));
  this->settle();
  EXPECT_EQ(Got, 0);
}

TYPED_TEST(NetLifecycle, CrashedSenderCannotTransmit) {
  NodeId A = this->Net.addNode("a");
  NodeId B = this->Net.addNode("b");
  int Got = 0;
  Address Dst = this->Net.bind(B, [&](Datagram) { ++Got; });
  Address Src = this->Net.bind(A, [](Datagram) {});
  this->Net.crash(A);
  this->Net.send(Src, Dst, bytes(4));
  this->settle();
  EXPECT_EQ(Got, 0);
  EXPECT_EQ(this->Net.counters().DatagramsDropped, 1u);
}

TYPED_TEST(NetLifecycle, RestartedNodeCanBindAndReceive) {
  NodeId A = this->Net.addNode("a");
  NodeId B = this->Net.addNode("b");
  this->Net.crash(B);
  this->Net.restart(B);
  EXPECT_TRUE(this->Net.isUp(B));
  int Got = 0;
  Address Dst = this->Net.bind(B, [&](Datagram) { ++Got; });
  Address Src = this->Net.bind(A, [](Datagram) {});
  this->Net.send(Src, Dst, bytes(1));
  this->settle();
  EXPECT_EQ(Got, 1);
}

TYPED_TEST(NetLifecycle, PerNodeDropsSumToTotal) {
  // Every drop is charged to the node the datagram was addressed to, so
  // per node, delivered + dropped covers every copy sent its way.
  Network &Net = this->Net;
  NodeId A = Net.addNode("a");
  NodeId B = Net.addNode("b");
  NodeId C = Net.addNode("c");
  NodeId D = Net.addNode("d");
  Address Src = Net.bind(A, [](Datagram) {});
  Address ToB = Net.bind(B, [](Datagram) {});
  Address ToC = Net.bind(C, [](Datagram) {});
  Address Gone = Net.bind(B, [](Datagram) {});
  Address FromD = Net.bind(D, [](Datagram) {});
  Net.unbind(Gone);
  Net.send(Src, ToB, bytes(1));
  Net.send(Src, ToB, bytes(1));
  Net.send(Src, ToC, bytes(1));
  Net.send(Src, Gone, bytes(1)); // Unbound port on B.
  this->settle();
  Net.crash(C);
  Net.crash(D);
  Net.send(Src, ToC, bytes(1));   // Crashed receiver C.
  Net.send(FromD, ToB, bytes(1)); // Crashed sender D, charged to B.
  this->settle();

  EXPECT_EQ(Net.counters(B).DatagramsDelivered, 2u);
  EXPECT_EQ(Net.counters(B).DatagramsDropped, 2u);
  EXPECT_EQ(Net.counters(C).DatagramsDelivered, 1u);
  EXPECT_EQ(Net.counters(C).DatagramsDropped, 1u);
  uint64_t Dropped = 0;
  for (NodeId N : {A, B, C, D})
    Dropped += Net.counters(N).DatagramsDropped;
  EXPECT_EQ(Dropped, 3u);
  EXPECT_EQ(Net.counters().DatagramsDropped, Dropped);
}

} // namespace
