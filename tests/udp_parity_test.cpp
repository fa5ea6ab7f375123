//===- udp_parity_test.cpp - SimNetwork/UdpNetwork outcome parity ---------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// The UDP backend (docs/NETWORK.md) must be *semantically* interchangeable
// with the simulator: the same workload, run over real loopback sockets
// and over the deterministic SimNetwork, must produce identical outcome
// tallies — every call completes with the same status and value, calls
// execute exactly once, nothing is corrupted or dropped on the floor.
//
// Parity is asserted on outcome tallies, not on traces: the two backends
// cannot agree on timing (one is a cost model, the other is a kernel), so
// trace hashes would be meaningless. What must agree is what the paper's
// semantics promise the *caller*: which calls succeeded, with what values,
// in what per-stream order.
//
//===----------------------------------------------------------------------===//

#include "promises/net/UdpNetwork.h"
#include "promises/runtime/RemoteHandler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;
using namespace promises::sim;

namespace {

struct BadInput {
  static constexpr const char *Name = "bad_input";
  int32_t Value = 0;
};

} // namespace

namespace promises::wire {
template <> struct Codec<BadInput> {
  static void encode(Encoder &E, const BadInput &V) { E.writeI32(V.Value); }
  static BadInput decode(Decoder &D) { return {D.readI32()}; }
};
} // namespace promises::wire

namespace {

/// Everything a caller can observe from the workload, independent of
/// timing. Two backends are in parity iff these tally structs are equal.
struct OutcomeTally {
  uint64_t Normal = 0;
  uint64_t Raised = 0;
  int64_t ValueSum = 0;     ///< Sum of normal results.
  int64_t RaisedSum = 0;    ///< Sum of exception payloads.
  std::vector<int32_t> StreamOrder; ///< Pipelined results, claim order.
  uint64_t ServerExecuted = 0;      ///< runtime.calls_executed on the server.
  uint64_t Corrupted = 0;           ///< net datagrams_corrupted.
  uint64_t Malformed = 0;           ///< transport MalformedDropped.

  bool operator==(const OutcomeTally &O) const = default;
};

/// The standard workload, identical for both backends: one server guardian
/// exporting two handlers, one client guardian issuing a mix of RPCs
/// (some succeeding, some raising the declared exception) and a pipelined
/// burst of stream calls whose promises are claimed in issue order.
OutcomeTally runWorkload(Simulation &S, net::Network &Net, net::NodeId SN,
                         net::NodeId CN, int Calls) {
  GuardianConfig GC;
  auto Server = std::make_unique<Guardian>(Net, SN, "server", GC);
  auto Client = std::make_unique<Guardian>(Net, CN, "client", GC);

  auto Triple = Server->addHandler<int32_t(int32_t), BadInput>(
      "triple", [](int32_t V) -> Outcome<int32_t, BadInput> {
        if (V % 7 == 3)
          return BadInput{V};
        return V * 3;
      });
  auto Square = Server->addHandler<int64_t(int32_t)>(
      "square", [](int32_t V) -> Outcome<int64_t> {
        return static_cast<int64_t>(V) * V;
      });

  OutcomeTally T;
  Client->spawnProcess("main", [&] {
    // Phase 1: sequential RPCs with a deterministic mix of normal and
    // exceptional outcomes.
    auto H = bindHandler(*Client, Client->newAgent(), Triple);
    for (int I = 0; I != Calls; ++I) {
      auto O = H.call(int32_t(I));
      if (O.isNormal()) {
        ++T.Normal;
        T.ValueSum += O.value();
      } else {
        ++T.Raised;
        T.RaisedSum += O.template get<BadInput>().Value;
      }
    }
    // Phase 2: a pipelined burst on one stream; promises become ready in
    // call order, and the claimed values land in StreamOrder.
    auto H2 = bindHandler(*Client, Client->newAgent(), Square);
    std::vector<decltype(H2.streamCall(int32_t(0)))> Ps;
    for (int I = 0; I != Calls; ++I)
      Ps.push_back(H2.streamCall(int32_t(I)));
    for (auto &P : Ps) {
      const auto &O = P.claim();
      ASSERT_TRUE(O.isNormal());
      T.StreamOrder.push_back(static_cast<int32_t>(O.value()));
    }
  });
  S.run();

  T.ServerExecuted =
      S.metrics()
          .counter("runtime.calls_executed",
                   {{"guardian", "server"},
                    {"node", std::to_string(SN)},
                    {"epoch", "0"}})
          .value();
  T.Corrupted = Net.counters().DatagramsCorrupted;
  T.Malformed = Server->transport().counters().MalformedDropped +
                Client->transport().counters().MalformedDropped;
  return T;
}

OutcomeTally runOverSim(int Calls) {
  Simulation S;
  net::NetConfig NC; // Default: lossless. Parity needs a clean channel.
  net::SimNetwork Net(S, NC);
  net::NodeId SN = Net.addNode("server");
  net::NodeId CN = Net.addNode("client");
  OutcomeTally T = runWorkload(S, Net, SN, CN, Calls);
  return T;
}

OutcomeTally runOverUdp(int Calls) {
  Simulation S;
  net::UdpNetwork Net(S); // Loopback, ephemeral ports.
  net::NodeId SN = Net.addNode("server");
  net::NodeId CN = Net.addNode("client");
  OutcomeTally T = runWorkload(S, Net, SN, CN, Calls);
  EXPECT_EQ(Net.unknownSourceDrops(), 0u);
  EXPECT_EQ(Net.sendQueueDrops(), 0u);
  return T;
}

TEST(UdpParity, OutcomeTalliesMatchTheSimulator) {
  const int Calls = 100;
  OutcomeTally Sim = runOverSim(Calls);
  OutcomeTally Udp = runOverUdp(Calls);

  // Both tallies against each other *and* against first principles, so a
  // bug common to both backends cannot hide inside "they agree".
  uint64_t ExpectRaised = 0;
  int64_t ExpectValueSum = 0, ExpectRaisedSum = 0;
  for (int I = 0; I != Calls; ++I) {
    if (I % 7 == 3) {
      ++ExpectRaised;
      ExpectRaisedSum += I;
    } else {
      ExpectValueSum += I * 3;
    }
  }
  EXPECT_EQ(Sim.Normal, Calls - ExpectRaised);
  EXPECT_EQ(Sim.Raised, ExpectRaised);
  EXPECT_EQ(Sim.ValueSum, ExpectValueSum);
  EXPECT_EQ(Sim.RaisedSum, ExpectRaisedSum);
  ASSERT_EQ(Sim.StreamOrder.size(), static_cast<size_t>(Calls));
  for (int I = 0; I != Calls; ++I)
    EXPECT_EQ(Sim.StreamOrder[I], I * I);
  EXPECT_EQ(Sim.ServerExecuted, static_cast<uint64_t>(2 * Calls));
  EXPECT_EQ(Sim.Corrupted, 0u);
  EXPECT_EQ(Sim.Malformed, 0u);

  EXPECT_EQ(Udp, Sim);
}

TEST(UdpParity, UdpSurvivesARestartedServerNode) {
  // Crash/restart semantics must also hold over real sockets: epoch
  // filtering makes traffic addressed to the pre-crash incarnation
  // unroutable instead of delivering it to the reborn node.
  Simulation S;
  net::UdpNetwork Net(S);
  net::NodeId SN = Net.addNode("server");
  net::NodeId CN = Net.addNode("client");
  GuardianConfig GC;
  auto Client = std::make_unique<Guardian>(Net, CN, "client", GC);
  std::unique_ptr<Guardian> Server =
      std::make_unique<Guardian>(Net, SN, "server", GC);
  auto Echo = Server->addHandler<int32_t(int32_t)>(
      "echo", [](int32_t V) -> Outcome<int32_t> { return V; });

  int32_t Before = -1, After = -1;
  bool SawBreak = false;
  Client->spawnProcess("main", [&] {
    {
      auto H = bindHandler(*Client, Client->newAgent(), Echo);
      auto O = H.call(int32_t(7));
      ASSERT_TRUE(O.isNormal());
      Before = O.value();
    }
    // Take the server down and bring a fresh incarnation up.
    Net.crash(SN);
    Net.restart(SN);
    Server = std::make_unique<Guardian>(Net, SN, "server", GC);
    auto Echo2 = Server->addHandler<int32_t(int32_t)>(
        "echo", [](int32_t V) -> Outcome<int32_t> { return V; });
    // A call binds a fresh stream to the new epoch and completes.
    auto H2 = bindHandler(*Client, Client->newAgent(), Echo2);
    auto O2 = H2.call(int32_t(9));
    if (O2.isNormal())
      After = O2.value();
    else
      SawBreak = true;
  });
  S.run();
  EXPECT_EQ(Before, 7);
  EXPECT_EQ(After, 9);
  EXPECT_FALSE(SawBreak);
}

} // namespace
