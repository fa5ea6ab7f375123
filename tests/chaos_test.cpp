//===- chaos_test.cpp - Chaos-harness tests -------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Two layers: the harness itself (plan generation and replay must be pure
// functions of the seed; every profile's invariant battery must hold), and
// a directed recovery-path regression that pins the epoch-qualified
// address fix — retransmits addressed to a crashed incarnation must never
// execute on the incarnation that reuses its port.
//
//===----------------------------------------------------------------------===//

#include "promises/chaos/Chaos.h"
#include "promises/harness/World.h"
#include "promises/runtime/RemoteHandler.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

using namespace promises;
using namespace promises::chaos;
using namespace promises::sim;

namespace {

ChaosOptions smallRun(uint64_t Seed, const ChaosProfile &P) {
  ChaosOptions O;
  O.Seed = Seed;
  O.Profile = P;
  O.OpsPerClient = 48;
  return O;
}

TEST(ChaosPlanTest, GenerationIsDeterministic) {
  ChaosOptions O = smallRun(42, ChaosProfile::mixed());
  ChaosPlan A = planFor(O);
  ChaosPlan B = planFor(O);
  ASSERT_FALSE(A.Actions.empty());
  ASSERT_EQ(A.Actions.size(), B.Actions.size());
  for (size_t I = 0; I < A.Actions.size(); ++I)
    EXPECT_EQ(formatAction(A.Actions[I]), formatAction(B.Actions[I]));
  // Actions come out time-sorted so the run can schedule them directly.
  for (size_t I = 1; I < A.Actions.size(); ++I)
    EXPECT_LE(A.Actions[I - 1].At, A.Actions[I].At);
}

TEST(ChaosPlanTest, DifferentSeedsGiveDifferentPlans) {
  ChaosPlan A = planFor(smallRun(1, ChaosProfile::mixed()));
  ChaosPlan B = planFor(smallRun(2, ChaosProfile::mixed()));
  std::string SA, SB;
  for (const ChaosAction &X : A.Actions)
    SA += formatAction(X) + "\n";
  for (const ChaosAction &X : B.Actions)
    SB += formatAction(X) + "\n";
  EXPECT_NE(SA, SB);
}

TEST(ChaosRunTest, MixedSeedsSatisfyInvariants) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    ChaosOptions O = smallRun(Seed, ChaosProfile::mixed());
    ChaosReport R = runChaos(O);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.summary()
                        << (R.Violations.empty() ? ""
                                                 : "\n  " + R.Violations[0])
                        << "\n  replay: " << replayCommand(O);
    EXPECT_EQ(R.OpsIssued, O.OpsPerClient * O.Clients);
    EXPECT_GT(R.Executions, 0u);
    // Every claimed outcome is accounted for.
    EXPECT_EQ(R.Normal + R.Unavailable + R.Failed + R.ExceptionReplies,
              R.OpsIssued - R.Sends);
  }
}

TEST(ChaosRunTest, EveryProfileSatisfiesInvariants) {
  for (const std::string &Name : ChaosProfile::names()) {
    ChaosOptions O = smallRun(9, *ChaosProfile::byName(Name));
    ChaosReport R = runChaos(O);
    EXPECT_TRUE(R.ok()) << Name << ": " << R.summary() << "\n  replay: "
                        << replayCommand(O);
  }
}

TEST(ChaosRunTest, ReplayIsByteIdentical) {
  ChaosOptions O = smallRun(11, ChaosProfile::mixed());
  ChaosReport A = runChaos(O);
  ChaosReport B = runChaos(O);
  ASSERT_TRUE(A.ok()) << A.summary();
  // The trace digest covers every structured event in emission order; two
  // equal hashes over equal-length streams mean the runs were
  // observationally identical, not merely similar.
  EXPECT_EQ(A.TraceHash, B.TraceHash);
  EXPECT_EQ(A.TraceEvents, B.TraceEvents);
  EXPECT_EQ(A.VirtualEnd, B.VirtualEnd);
  EXPECT_EQ(A.Normal, B.Normal);
  EXPECT_EQ(A.Unavailable, B.Unavailable);
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.OrphansDestroyed, B.OrphansDestroyed);
  EXPECT_EQ(A.StaleEpochDrops, B.StaleEpochDrops);
}

TEST(ChaosRunTest, DeadlinesWorkloadSatisfiesInvariants) {
  // The resilience mix layers deadlines, mid-flight cancels, retry
  // policies, circuit breaking, and admission control on top of the fault
  // plan; the extra invariants (client-observed resilience outcomes
  // bounded by server-side counters, at-most-once for non-idempotent ops)
  // must hold on every seed.
  uint64_t Cancels = 0, Retries = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    ChaosOptions O = smallRun(Seed, ChaosProfile::mixed());
    O.Deadlines = true;
    ChaosReport R = runChaos(O);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.summary()
                        << (R.Violations.empty() ? ""
                                                 : "\n  " + R.Violations[0])
                        << "\n  replay: " << replayCommand(O);
    EXPECT_EQ(R.Normal + R.Unavailable + R.Failed + R.ExceptionReplies,
              R.OpsIssued - R.Sends);
    EXPECT_LE(R.Cancelled, R.ServerCancelled);
    EXPECT_LE(R.ServerCancelled, R.CancelsSent);
    EXPECT_LE(R.Expired, R.ServerExpired);
    EXPECT_LE(R.Shed, R.ServerShed);
    Cancels += R.CancelsSent;
    Retries += R.Retries;
  }
  // The workload actually drives the new machinery.
  EXPECT_GT(Cancels, 0u);
  EXPECT_GT(Retries, 0u);
}

TEST(ChaosRunTest, DeadlinesReplayIsByteIdentical) {
  ChaosOptions O = smallRun(11, ChaosProfile::mixed());
  O.Deadlines = true;
  ChaosReport A = runChaos(O);
  ChaosReport B = runChaos(O);
  ASSERT_TRUE(A.ok()) << A.summary();
  EXPECT_EQ(A.TraceHash, B.TraceHash);
  EXPECT_EQ(A.TraceEvents, B.TraceEvents);
  EXPECT_EQ(A.VirtualEnd, B.VirtualEnd);
  EXPECT_EQ(A.Retries, B.Retries);
  EXPECT_EQ(A.CancelsSent, B.CancelsSent);
  EXPECT_EQ(A.Expired, B.Expired);
  EXPECT_EQ(A.Shed, B.Shed);
  EXPECT_EQ(A.FastFails, B.FastFails);
  // The replay command round-trips the resilience flag.
  EXPECT_NE(replayCommand(O).find("--deadlines"), std::string::npos);
}

TEST(ChaosRunTest, WireIntegrityWorkloadSatisfiesInvariants) {
  // Byte-level damage on top of the fault plan: bit-flip corruption
  // (ambient + bursts), heavy duplication, and bounded reordering all at
  // once. The checksums must catch every damaged frame, dedup must keep
  // execution exactly-once, and the whole invariant battery must hold.
  uint64_t Corrupted = 0, Dropped = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    ChaosOptions O = smallRun(Seed, ChaosProfile::mixed());
    O.Corrupt = O.Dup = O.Reorder = true;
    ChaosReport R = runChaos(O);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.summary()
                        << (R.Violations.empty() ? ""
                                                 : "\n  " + R.Violations[0])
                        << "\n  replay: " << replayCommand(O);
    // Damage is detected at most once per damaged copy, and nothing ever
    // reaches the message decoder (that would be a local encode bug).
    EXPECT_LE(R.FramesCorruptDropped, R.DatagramsCorrupted);
    EXPECT_EQ(R.MalformedDropped, 0u);
    Corrupted += R.DatagramsCorrupted;
    Dropped += R.FramesCorruptDropped;
  }
  // The workload actually damages frames, and the checksums actually
  // reject them.
  EXPECT_GT(Corrupted, 0u);
  EXPECT_GT(Dropped, 0u);
}

TEST(ChaosRunTest, WireIntegrityReplayIsByteIdentical) {
  ChaosOptions O = smallRun(11, ChaosProfile::mixed());
  O.Corrupt = O.Dup = O.Reorder = true;
  ChaosReport A = runChaos(O);
  ChaosReport B = runChaos(O);
  ASSERT_TRUE(A.ok()) << A.summary() << "\n  replay: " << replayCommand(O);
  EXPECT_EQ(A.TraceHash, B.TraceHash);
  EXPECT_EQ(A.TraceEvents, B.TraceEvents);
  EXPECT_EQ(A.VirtualEnd, B.VirtualEnd);
  EXPECT_EQ(A.DatagramsCorrupted, B.DatagramsCorrupted);
  EXPECT_EQ(A.FramesCorruptDropped, B.FramesCorruptDropped);
  EXPECT_EQ(A.CorruptBursts, B.CorruptBursts);
  // The replay command round-trips every wire-integrity flag.
  std::string Cmd = replayCommand(O);
  EXPECT_NE(Cmd.find("--corrupt"), std::string::npos);
  EXPECT_NE(Cmd.find("--dup"), std::string::npos);
  EXPECT_NE(Cmd.find("--reorder"), std::string::npos);
}

TEST(ChaosRunTest, CorruptionMachineryStaysColdWithoutTheFlag) {
  // Adding the wire-integrity knobs must not perturb existing runs: a
  // plain run reports zero corruption activity (the invariant battery
  // enforces this too, but pin it explicitly).
  ChaosOptions O = smallRun(11, ChaosProfile::mixed());
  ChaosReport R = runChaos(O);
  ASSERT_TRUE(R.ok()) << R.summary();
  EXPECT_EQ(R.DatagramsCorrupted, 0u);
  EXPECT_EQ(R.FramesCorruptDropped, 0u);
  EXPECT_EQ(R.MalformedDropped, 0u);
  EXPECT_EQ(R.CorruptBursts, 0u);
  EXPECT_EQ(replayCommand(O).find("--corrupt"), std::string::npos);
}

TEST(ChaosRunTest, CrashProfileExercisesRecoveryMachinery) {
  // One known-good seed that drives the paths this PR hardens: node
  // crashes with port-reusing restarts (stale-epoch drops) and breaks.
  ChaosOptions O = smallRun(7, ChaosProfile::crashes());
  ChaosReport R = runChaos(O);
  ASSERT_TRUE(R.ok()) << R.summary() << "\n  replay: " << replayCommand(O);
  EXPECT_GT(R.Crashes, 0u);
  EXPECT_GT(R.Restarts, 0u);
  EXPECT_GT(R.Unavailable, 0u);
}

TEST(ChaosDirected, RetransmitsDoNotExecuteOnNewIncarnation) {
  // Regression for the stale-datagram bug: a restarted node reuses its
  // port space, so an in-flight call batch (or its retransmits) addressed
  // to the crashed incarnation lands on the same (node, port) as the new
  // guardian. Restart epochs must drop it; before the fix the new
  // incarnation executed the call while the client also saw a break.
  Simulation S;
  net::NetConfig NC; // Default 2ms propagation keeps the batch in flight.
  net::SimNetwork Net(S, NC);
  net::NodeId SN = Net.addNode("server");
  net::NodeId CN = Net.addNode("client");

  runtime::GuardianConfig GC;
  GC.Stream.RetransmitTimeout = msec(5);
  GC.Stream.MaxRetries = 1;

  uint64_t Exec1 = 0, Exec2 = 0;
  auto Server1 = std::make_unique<runtime::Guardian>(Net, SN, "server#1", GC);
  auto Ref1 = Server1->addHandler<uint64_t(uint64_t)>(
      "echo", [&](uint64_t V) -> core::Outcome<uint64_t> {
        ++Exec1;
        return V;
      });
  runtime::Guardian Client(Net, CN, "client", GC);

  std::unique_ptr<runtime::Guardian> Server2;
  std::optional<core::Exn> Err;
  Client.spawnProcess("driver", [&] {
    auto H = runtime::bindHandler(Client, Client.newAgent(), Ref1);
    auto P = H.streamCall(uint64_t{42});
    H.flush();
    Err = P.claim().toExn();
  });
  S.schedule(msec(1), [&] {
    Net.crash(SN);
    Net.restart(SN);
    Server2 = std::make_unique<runtime::Guardian>(Net, SN, "server#2", GC);
    Server2->addHandler<uint64_t(uint64_t)>(
        "echo", [&](uint64_t V) -> core::Outcome<uint64_t> {
          ++Exec2;
          return V;
        });
    // Same port, new epoch: the addresses must never compare equal.
    EXPECT_EQ(Server2->address().Port, Server1->address().Port);
    EXPECT_NE(Server2->address().Epoch, Server1->address().Epoch);
  });
  S.run();

  // Neither incarnation ran the call: #1 died before delivery, #2 only
  // ever saw stale-epoch datagrams.
  EXPECT_EQ(Exec1, 0u);
  EXPECT_EQ(Exec2, 0u);
  ASSERT_TRUE(Server2);
  EXPECT_EQ(Server2->callsExecuted(), 0u);
  EXPECT_GE(Net.staleEpochDrops(), 1u);
  // The client saw exactly one outcome for the call: a break.
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(Err->Name, "unavailable");
}

TEST(ChaosDirected, PostMortemEndsWithTheLastRecordedEvent) {
  // A client process that blocks forever fails the quiescence audit. The
  // post-mortem's last line is the run's last recorded event: the crash
  // of the server's node at 1 ms.
  harness::World W(1, harness::faultNetConfig(ChaosProfile::crashes()), 1, 1,
                   [](size_t, uint32_t, runtime::Guardian &) {});
  W.installServer(0);
  runtime::Guardian &Client = W.addClient(0, "cli0", {});
  WaitQueue Never(W.S);
  Client.spawnProcess("stuck", [&] { Never.wait(); });
  harness::ChaosPlan Plan;
  Plan.Actions.push_back({msec(1), harness::ChaosAction::Kind::CrashNode});
  W.schedule(Plan);
  W.S.run();

  harness::RunReport R;
  W.conclude(R);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0], "1 processes still live at quiescence");
  EXPECT_TRUE(R.PostMortem.empty()); // Filled only on request.
  W.postMortem(R);
  ASSERT_FALSE(R.PostMortem.empty());
  EXPECT_LE(R.PostMortem.size(), harness::World::PostMortemEvents);
  EXPECT_EQ(R.PostMortem.back(),
            "1.000000ms node=0 node_crash id=0 seq=0 dur=0.000000ms srv0");
}

} // namespace
