//===- resilience_test.cpp - Deadlines, cancel, retry, breaker ------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The resilience layer: per-call deadlines (claimFor/claimUntil and the
// wire deadline), cancellation, retry policies, admission-control
// shedding, and endpoint circuit breaking.
//
//===----------------------------------------------------------------------===//

#include "promises/core/Exceptions.h"
#include "promises/runtime/RemoteHandler.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;
using namespace promises::sim;

namespace {

struct ResilienceFixture : ::testing::Test {
  Simulation S;
  net::NetConfig NC;
  GuardianConfig GC;     // Server side.
  GuardianConfig ClientGC; // Client side (breaker knobs live here).

  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<Guardian> Server, Client;
  net::NodeId SN = 0, CN = 0;

  std::vector<int32_t> Executed;
  HandlerRef<int32_t(int32_t)> Fast;
  HandlerRef<int32_t(int32_t)> Slow;

  void build() {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    SN = Net->addNode("server");
    CN = Net->addNode("client");
    Server = std::make_unique<Guardian>(*Net, SN, "server", GC);
    Client = std::make_unique<Guardian>(*Net, CN, "client", ClientGC);
    Fast = Server->addHandler<int32_t(int32_t)>(
        "fast", [this](int32_t V) -> Outcome<int32_t> {
          Executed.push_back(V);
          return V * 10;
        });
    Slow = Server->addHandler<int32_t(int32_t)>(
        "slow", [this](int32_t V) -> Outcome<int32_t> {
          Executed.push_back(V);
          S.sleep(msec(5));
          return V * 10;
        });
  }
};

//===----------------------------------------------------------------------===//
// claimFor / claimUntil
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, ClaimForTimesOutThenDelivers) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    // The slow handler takes 5ms; a 1ms claim window must time out
    // without consuming the outcome.
    Time T0 = S.now();
    EXPECT_EQ(P.claimFor(msec(1)), nullptr);
    EXPECT_GE(S.now(), T0 + msec(1));
    // A second, generous window sees the real outcome.
    const auto *O = P.claimFor(sec(1));
    ASSERT_NE(O, nullptr);
    EXPECT_EQ(O->value(), 10);
    // claimUntil with a deadline already in the past returns immediately
    // once the value exists.
    EXPECT_NE(P.claimUntil(0), nullptr);
  });
  S.run();
}

TEST_F(ResilienceFixture, ClaimForOnBornReadyPromiseNeedsNoSimulation) {
  // Born-ready promises have no wait queue; claimFor must not touch one.
  auto P = Promise<int32_t>::makeReady(Outcome<int32_t>(int32_t(7)));
  const auto *O = P.claimFor(msec(1));
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->value(), 7);
}

TEST_F(ResilienceFixture, RepeatedClaimAfterUnavailableIsStable) {
  // Claiming an unavailable outcome is repeatable: the promise stays
  // ready and every claim observes the same exception.
  GC.Stream.RetransmitTimeout = msec(5);
  GC.Stream.MaxRetries = 1;
  ClientGC = GC;
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    Net->crash(SN);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    const auto &O1 = P.claim();
    EXPECT_TRUE(O1.is<Unavailable>());
    const auto &O2 = P.claim();
    EXPECT_TRUE(O2.is<Unavailable>());
    EXPECT_EQ(O1.get<Unavailable>().Reason, O2.get<Unavailable>().Reason);
    EXPECT_TRUE(P.ready());
  });
  S.run();
}

TEST_F(ResilienceFixture, SynchAfterShutdownReportsTransportShutDown) {
  ClientGC = GC;
  build();
  SynchResult SR;
  std::optional<core::Exn> Late;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    Client->transport().shutdown();
    // The window cannot be vouched for: synch reports the shutdown.
    SR = H.synch();
    // With the transport dead, further sends fail immediately with a
    // born-ready promise.
    Late = H.send(int32_t(2));
  });
  S.run();
  EXPECT_EQ(SR.K, SynchResult::Kind::Unavailable);
  EXPECT_EQ(SR.Reason, core::reasons::TransportShutDown);
  ASSERT_TRUE(Late.has_value());
  EXPECT_EQ(Late->Name, "unavailable");
}

TEST_F(ResilienceFixture, ClaimAfterShutdownSettlesWithTransportShutDown) {
  // The call is on the wire, but its reply can never arrive: the shutdown
  // itself must settle it, or the claim waits forever.
  build();
  std::optional<Outcome<int32_t>> Out;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    Client->transport().shutdown();
    Out = P.claim();
  });
  S.run();
  ASSERT_TRUE(Out.has_value()) << "claim hung on a shut-down transport";
  ASSERT_TRUE(Out->is<Unavailable>());
  EXPECT_EQ(Out->get<Unavailable>().Reason, core::reasons::TransportShutDown);
  stream::StreamCounters C = Client->transport().counters();
  EXPECT_EQ(C.CallsIssued, 1u);
  EXPECT_EQ(C.CallsIssued, C.CallsFulfilled + C.CallsBroken);
}

//===----------------------------------------------------------------------===//
// Wire deadlines
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, DeadlineExpiresWhileGatedBehindSlowCall) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    // Propagation alone is 2ms, so a 4ms deadline lets call 1 start in
    // time while call 2 — gated behind 5ms of service — must expire.
    H.withDeadline(msec(4));
    auto P1 = H.streamCall(int32_t(1));
    auto P2 = H.streamCall(int32_t(2));
    H.flush();
    ASSERT_TRUE(P1.claim().isNormal());
    const auto &O2 = P2.claim();
    ASSERT_TRUE(O2.is<Unavailable>());
    EXPECT_EQ(O2.get<Unavailable>().Reason, core::reasons::DeadlineExpired);
  });
  S.run();
  // The expired call never ran the handler, and the drop was counted.
  EXPECT_EQ(Executed, (std::vector<int32_t>{1}));
  EXPECT_EQ(Server->deadlinesExpired(), 1u);
  EXPECT_EQ(Server->callsExecuted(), 1u);
}

TEST_F(ResilienceFixture, GenerousDeadlineDoesNotFire) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    H.withDeadline(sec(1));
    auto P = H.streamCall(int32_t(3));
    H.flush();
    EXPECT_TRUE(P.claim().isNormal());
  });
  S.run();
  EXPECT_EQ(Server->deadlinesExpired(), 0u);
}

//===----------------------------------------------------------------------===//
// Cancellation
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, CancelDestroysExecutingCallAndUnblocksSuccessor) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto [P1, C1] = H.streamCallCancellable(int32_t(1));
    auto P2 = H.streamCall(int32_t(2));
    H.flush();
    S.sleep(msec(1)); // Let call 1 start executing (5ms service time).
    ASSERT_TRUE(C1.valid());
    EXPECT_TRUE(H.cancel(C1));
    const auto &O1 = P1.claim();
    ASSERT_TRUE(O1.is<Unavailable>());
    EXPECT_EQ(O1.get<Unavailable>().Reason, core::reasons::Cancelled);
    // The successor still executes and completes: cancellation advanced
    // the stream's execution gate past the dead call.
    EXPECT_EQ(P2.claim().value(), 20);
  });
  S.run();
  // Call 1 started (hence in Executed) but was destroyed mid-sleep.
  EXPECT_EQ(Executed, (std::vector<int32_t>{1, 2}));
  auto SrvC = Server->transport().counters();
  EXPECT_EQ(SrvC.CallsCancelled, 1u);
  auto CliC = Client->transport().counters();
  EXPECT_EQ(CliC.CancelsSent, 1u);
  // Quiescence: nothing leaked on the kill path.
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
  EXPECT_EQ(Server->gatedCallCount(), 0u);
}

TEST_F(ResilienceFixture, CancelBeforeDeliveryDropsCallWithoutExecuting) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P1 = H.streamCall(int32_t(1));
    auto [P2, C2] = H.streamCallCancellable(int32_t(2));
    auto P3 = H.streamCall(int32_t(3));
    // Cancel before flush: the cancel races ahead of redelivery and the
    // receiver marks the seq, completing it at delivery time.
    EXPECT_TRUE(H.cancel(C2));
    H.flush();
    EXPECT_TRUE(P1.claim().isNormal());
    const auto &O2 = P2.claim();
    ASSERT_TRUE(O2.is<Unavailable>());
    EXPECT_EQ(O2.get<Unavailable>().Reason, core::reasons::Cancelled);
    EXPECT_EQ(P3.claim().value(), 30);
  });
  S.run();
  // Call 2 never reached its handler.
  EXPECT_EQ(Executed, (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(Server->transport().counters().CallsCancelled, 1u);
}

TEST_F(ResilienceFixture, CancelGatedCallLetsSuccessorRunAfterPredecessor) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P1 = H.streamCall(int32_t(1));
    auto [P2, C2] = H.streamCallCancellable(int32_t(2));
    auto P3 = H.streamCall(int32_t(3));
    H.flush();
    S.sleep(msec(3)); // Call 1 is executing (5ms); 2 and 3 wait behind it.
    EXPECT_EQ(Server->gatedCallCount(), 2u);
    ASSERT_TRUE(C2.valid());
    EXPECT_TRUE(H.cancel(C2));
    S.sleep(msec(3)); // The cancel has landed; call 1 is still executing.
    // Call 2 left the gate without letting call 3 overtake call 1.
    EXPECT_EQ(Server->gatedCallCount(), 1u);
    EXPECT_EQ(Executed, (std::vector<int32_t>{1}));
    EXPECT_EQ(P1.claim().value(), 10);
    const auto &O2 = P2.claim();
    ASSERT_TRUE(O2.is<Unavailable>());
    EXPECT_EQ(O2.get<Unavailable>().Reason, core::reasons::Cancelled);
    EXPECT_EQ(P3.claim().value(), 30);
  });
  S.run();
  EXPECT_EQ(Executed, (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(Server->transport().counters().CallsCancelled, 1u);
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
  EXPECT_EQ(Server->gatedCallCount(), 0u);
}

TEST_F(ResilienceFixture, CancelAfterOutcomeIsRefused) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    auto [P, C] = H.streamCallCancellable(int32_t(1));
    H.flush();
    EXPECT_EQ(P.claim().value(), 10);
    // The outcome already arrived; there is nothing left to cancel.
    EXPECT_FALSE(H.cancel(C));
  });
  S.run();
  EXPECT_EQ(Client->transport().counters().CancelsSent, 0u);
}

//===----------------------------------------------------------------------===//
// Retry policies
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, IdempotentCallRetriesPastTransientOverload) {
  GC.MaxPendingCalls = 1; // Server sheds while the slow call runs.
  build();
  Client->spawnProcess("occupier", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  Client->spawnProcess("retrier", [&] {
    S.sleep(msec(1)); // Arrive while the slow call occupies the server.
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    RetryPolicy RP;
    RP.MaxAttempts = 4;
    RP.Backoff = msec(4);
    H.withRetryPolicy(RP).declareIdempotent();
    auto P = H.streamCall(int32_t(2));
    H.flush();
    // The first attempt is shed; a backed-off retry lands after the slow
    // call drains and succeeds.
    EXPECT_EQ(P.claim().value(), 20);
  });
  S.run();
  EXPECT_GE(Server->callsShed(), 1u);
  EXPECT_GE(Client->retriesIssued(), 1u);
}

TEST_F(ResilienceFixture, NonIdempotentCallIsNotRetried) {
  GC.MaxPendingCalls = 1;
  build();
  Client->spawnProcess("occupier", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  Client->spawnProcess("caller", [&] {
    S.sleep(msec(1));
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    RetryPolicy RP;
    RP.MaxAttempts = 4;
    RP.Backoff = msec(4);
    H.withRetryPolicy(RP); // IdempotentOnly (default) + not declared.
    auto P = H.streamCall(int32_t(2));
    H.flush();
    const auto &O = P.claim();
    ASSERT_TRUE(O.is<Unavailable>());
    EXPECT_EQ(O.get<Unavailable>().Reason, core::reasons::Overloaded);
  });
  S.run();
  EXPECT_EQ(Client->retriesIssued(), 0u);
}

TEST_F(ResilienceFixture, RetryBudgetBoundsAttempts) {
  // A permanently-crashed server: every attempt breaks with unavailable.
  // The budget (not MaxAttempts) is what stops the retries.
  GC.Stream.RetransmitTimeout = msec(2);
  GC.Stream.MaxRetries = 1;
  ClientGC = GC;
  build();
  Client->spawnProcess("main", [&] {
    Net->crash(SN);
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    RetryPolicy RP;
    RP.MaxAttempts = 10;
    RP.Backoff = msec(1);
    RP.Budget = 2.0; // Two retry tokens only.
    H.withRetryPolicy(RP).declareIdempotent();
    auto P = H.streamCall(int32_t(1));
    H.flush();
    EXPECT_TRUE(P.claim().is<Unavailable>());
  });
  S.run();
  EXPECT_EQ(Client->retriesIssued(), 2u);
}

//===----------------------------------------------------------------------===//
// Admission control (shedding)
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, OverloadedGuardianShedsBeyondMaxPendingCalls) {
  GC.MaxPendingCalls = 2;
  build();
  int Normal = 0, Shed = 0;
  Client->spawnProcess("burst", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    std::vector<Promise<int32_t>> Ps;
    for (int32_t I = 0; I < 6; ++I)
      Ps.push_back(H.streamCall(I));
    H.flush();
    for (auto &P : Ps) {
      const auto &O = P.claim();
      if (O.isNormal()) {
        ++Normal;
      } else {
        ASSERT_TRUE(O.is<Unavailable>());
        EXPECT_EQ(O.get<Unavailable>().Reason, core::reasons::Overloaded);
        ++Shed;
      }
    }
  });
  S.run();
  // The burst lands in one batch: two calls are admitted (one executing,
  // one gated), the rest shed. Outcomes are conserved either way.
  EXPECT_EQ(Normal, 2);
  EXPECT_EQ(Shed, 4);
  EXPECT_EQ(Server->callsShed(), 4u);
  EXPECT_EQ(Server->callsExecuted(), 2u);
}

//===----------------------------------------------------------------------===//
// Circuit breaking
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, BreakerFailsFastWithoutTouchingNetworkThenHeals) {
  ClientGC.Stream.RetransmitTimeout = msec(2);
  ClientGC.Stream.MaxRetries = 1;
  ClientGC.Stream.BreakerThreshold = 1;
  ClientGC.Stream.BreakerCooldown = msec(4);
  build();
  Client->spawnProcess("main", [&] {
    Net->setPartitioned(CN, SN, true);
    auto A = Client->newAgent();
    auto H = bindHandler(*Client, A, Fast);
    // First call: times out, breaks, trips the breaker.
    auto P1 = H.streamCall(int32_t(1));
    H.flush();
    EXPECT_TRUE(P1.claim().is<Unavailable>());
    EXPECT_EQ(Client->transport().breakerState(A, Server->address(),
                                               Guardian::DefaultGroup),
              1);
    EXPECT_EQ(Client->transport().openBreakerCount(), 1u);
    // Second call fails fast: born-ready promise, zero datagrams.
    uint64_t SentBefore = Net->counters().DatagramsSent;
    auto P2 = H.streamCall(int32_t(2));
    ASSERT_TRUE(P2.ready());
    const auto &O2 = P2.claim();
    ASSERT_TRUE(O2.is<Unavailable>());
    EXPECT_EQ(O2.get<Unavailable>().Reason, core::reasons::CircuitOpen);
    EXPECT_EQ(Net->counters().DatagramsSent, SentBefore);
    // Heal the link; the half-open probe draws a reply and closes the
    // breaker, after which calls flow normally again.
    Net->setPartitioned(CN, SN, false);
    S.sleep(msec(20));
    EXPECT_EQ(Client->transport().breakerState(A, Server->address(),
                                               Guardian::DefaultGroup),
              0);
    auto P3 = H.streamCall(int32_t(3));
    H.flush();
    EXPECT_EQ(P3.claim().value(), 30);
  });
  S.run();
  auto C = Client->transport().counters();
  EXPECT_EQ(C.BreakerOpens, 1u);
  EXPECT_GE(C.BreakerFastFails, 1u);
  EXPECT_GE(C.BreakerProbes, 1u);
  EXPECT_EQ(C.BreakerCloses, 1u);
  EXPECT_EQ(Client->transport().openBreakerCount(), 0u);
}

TEST_F(ResilienceFixture, ReceiverReportedBreaksDoNotTripBreaker) {
  // Decode failures prove the endpoint is reachable: the breaker must
  // ignore them no matter how many occur consecutively.
  ClientGC.Stream.BreakerThreshold = 1;
  build();
  auto Fragile = Server->addHandler<wire::Fragile(wire::Fragile)>(
      "fragile", [](wire::Fragile F) -> Outcome<wire::Fragile> { return F; });
  Client->spawnProcess("main", [&] {
    auto A = Client->newAgent();
    auto H = bindHandler(*Client, A, Fragile);
    for (int I = 0; I < 3; ++I) {
      wire::Fragile Bad;
      Bad.FailDecode = true;
      auto P = H.streamCall(Bad);
      H.flush();
      EXPECT_TRUE(P.claim().is<Failure>());
    }
    EXPECT_EQ(Client->transport().breakerState(A, Server->address(),
                                               Guardian::DefaultGroup),
              0);
  });
  S.run();
  EXPECT_EQ(Client->transport().counters().BreakerOpens, 0u);
}

//===----------------------------------------------------------------------===//
// Overload-path accounting
//===----------------------------------------------------------------------===//
//
// The degradation battery leans on these identities: a completion that
// reports unavailable("overloaded") increments call.shed exactly once and
// nothing in breaker.*; unavailable("circuit open") increments
// breaker.fast_fails exactly once and nothing in call.shed; and shed
// completions never consume retry-budget tokens — only an actually-issued
// retry attempt does.
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, ShedCompletionCountsOnceAsShedOnly) {
  GC.MaxPendingCalls = 1;
  build();
  S.metrics().setEnabled(true);
  Client->spawnProcess("occupier", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  Client->spawnProcess("caller", [&] {
    S.sleep(msec(1)); // Arrive while the slow call holds the only slot.
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    auto P = H.streamCall(int32_t(2));
    H.flush();
    const auto &O = P.claim();
    ASSERT_TRUE(O.is<Unavailable>());
    EXPECT_EQ(O.get<Unavailable>().Reason, core::reasons::Overloaded);
  });
  S.run();
  // Exactly one shed, mirrored one-to-one by the trace events, and no
  // breaker or retry involvement anywhere.
  EXPECT_EQ(Server->callsShed(), 1u);
  size_t ShedEvents = 0;
  for (const auto &E : S.metrics().events())
    ShedEvents += E.Kind == EventKind::CallShed;
  EXPECT_EQ(ShedEvents, 1u);
  EXPECT_EQ(Client->transport().counters().BreakerFastFails, 0u);
  EXPECT_EQ(Client->transport().counters().BreakerOpens, 0u);
  EXPECT_EQ(Client->retriesIssued(), 0u);
  // The call had no retry policy: the shed must not have touched the
  // retry bucket for this endpoint (it should not even exist yet), so a
  // full Budget's worth of tokens is still available.
  EXPECT_TRUE(Client->takeRetryToken(Server->address(), 2.0));
  EXPECT_TRUE(Client->takeRetryToken(Server->address(), 2.0));
  EXPECT_FALSE(Client->takeRetryToken(Server->address(), 2.0));
}

TEST_F(ResilienceFixture, FastFailCompletionCountsOnceAsBreakerOnly) {
  ClientGC.Stream.RetransmitTimeout = msec(2);
  ClientGC.Stream.MaxRetries = 1;
  ClientGC.Stream.BreakerThreshold = 1;
  ClientGC.Stream.BreakerCooldown = sec(1); // Stay open for the test.
  build();
  Client->spawnProcess("main", [&] {
    Net->setPartitioned(CN, SN, true);
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    auto P1 = H.streamCall(int32_t(1));
    H.flush();
    EXPECT_TRUE(P1.claim().is<Unavailable>()); // Timeout break trips it.
    for (int32_t I = 2; I <= 4; ++I) {
      auto P = H.streamCall(I);
      ASSERT_TRUE(P.ready()); // Born-ready: never touched the network.
      const auto &O = P.claim();
      ASSERT_TRUE(O.is<Unavailable>());
      EXPECT_EQ(O.get<Unavailable>().Reason, core::reasons::CircuitOpen);
    }
  });
  S.run();
  // Three fast-fails, each counted exactly once as breaker work; the
  // shed counters on both sides never move.
  EXPECT_EQ(Client->transport().counters().BreakerFastFails, 3u);
  EXPECT_EQ(Client->transport().counters().BreakerOpens, 1u);
  EXPECT_EQ(Server->callsShed(), 0u);
  EXPECT_EQ(Client->callsShed(), 0u);
  EXPECT_EQ(Server->callsExecuted(), 0u);
}

TEST_F(ResilienceFixture, FastFailedRetryRefundsItsBudgetToken) {
  // Attempt 1 times out and trips the breaker; the scheduled retry then
  // fast-fails locally without touching the network. That retry consumed
  // a budget token for an attempt that never happened — it must be
  // refunded, or sustained fast-fails drain the budget that healthy
  // endpoints will need after the partition heals.
  GC.Stream.RetransmitTimeout = msec(2);
  GC.Stream.MaxRetries = 1;
  ClientGC = GC;
  ClientGC.Stream.BreakerThreshold = 1;
  ClientGC.Stream.BreakerCooldown = sec(1);
  build();
  Client->spawnProcess("main", [&] {
    Net->crash(SN);
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    RetryPolicy RP;
    RP.MaxAttempts = 10;
    RP.Backoff = msec(1);
    RP.Budget = 2.0;
    H.withRetryPolicy(RP).declareIdempotent();
    auto P = H.streamCall(int32_t(1));
    H.flush();
    const auto &O = P.claim();
    ASSERT_TRUE(O.is<Unavailable>());
    EXPECT_EQ(O.get<Unavailable>().Reason, core::reasons::CircuitOpen);
  });
  S.run();
  // One real retry was issued (and fast-failed); its token came back.
  EXPECT_EQ(Client->retriesIssued(), 1u);
  EXPECT_EQ(Client->transport().counters().BreakerFastFails, 1u);
  // The bucket is back at the full 2.0: two takes succeed, a third fails.
  EXPECT_TRUE(Client->takeRetryToken(Server->address(), 2.0));
  EXPECT_TRUE(Client->takeRetryToken(Server->address(), 2.0));
  EXPECT_FALSE(Client->takeRetryToken(Server->address(), 2.0));
}

TEST_F(ResilienceFixture, RetryAfterShedConsumesExactlyOneTokenPerRetry) {
  GC.MaxPendingCalls = 1;
  build();
  Client->spawnProcess("occupier", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  Client->spawnProcess("retrier", [&] {
    S.sleep(msec(1));
    auto H = bindHandler(*Client, Client->newAgent(), Fast);
    RetryPolicy RP;
    RP.MaxAttempts = 4;
    RP.Backoff = msec(4);
    RP.Budget = 3.0;
    RP.BudgetCredit = 0.5;
    H.withRetryPolicy(RP).declareIdempotent();
    auto P = H.streamCall(int32_t(2));
    H.flush();
    EXPECT_EQ(P.claim().value(), 20);
  });
  S.run();
  // One shed completion, one retry that succeeded. The shed itself cost
  // nothing; the retry debited 1.0 and the success credited 0.5 back:
  // 3.0 - 1.0 + 0.5 = 2.5 tokens left — two takes, not three.
  ASSERT_EQ(Client->retriesIssued(), 1u);
  EXPECT_EQ(Server->callsShed(), 1u);
  EXPECT_TRUE(Client->takeRetryToken(Server->address(), 3.0));
  EXPECT_TRUE(Client->takeRetryToken(Server->address(), 3.0));
  EXPECT_FALSE(Client->takeRetryToken(Server->address(), 3.0));
}

TEST_F(ResilienceFixture, PerStreamQuotaShedsStormWithoutStarvingOthers) {
  // Tenant isolation at the admission layer: one stream may hold at most
  // MaxPendingPerStream slots, so a storming agent sheds against its own
  // quota while another agent's calls are admitted untouched.
  GC.MaxPendingPerStream = 1;
  build();
  int StormNormal = 0, StormShed = 0;
  Client->spawnProcess("main", [&] {
    auto Stormer = bindHandler(*Client, Client->newAgent(), Slow);
    std::vector<Promise<int32_t>> Ps;
    for (int32_t I = 0; I < 4; ++I)
      Ps.push_back(Stormer.streamCall(I));
    Stormer.flush();
    // The quiet agent's single call rides its own stream: admitted and
    // served while the storm stream is pinned at its quota.
    auto Quiet = bindHandler(*Client, Client->newAgent(), Fast);
    auto PQ = Quiet.streamCall(int32_t(100));
    Quiet.flush();
    EXPECT_EQ(PQ.claim().value(), 1000);
    for (auto &P : Ps) {
      const auto &O = P.claim();
      if (O.isNormal()) {
        ++StormNormal;
      } else {
        ASSERT_TRUE(O.is<Unavailable>());
        EXPECT_EQ(O.get<Unavailable>().Reason, core::reasons::Overloaded);
        ++StormShed;
      }
    }
  });
  S.run();
  // The storm batch landed together: one admitted, three shed.
  EXPECT_EQ(StormNormal, 1);
  EXPECT_EQ(StormShed, 3);
  EXPECT_EQ(Server->callsShed(), 3u);
  // Quiescence: the shed seqs settled their stream (no gate leak).
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
  EXPECT_EQ(Server->gatedCallCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Shed gaps under sustained queue-full (the shed-gap hang class)
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, ShedStormQuiescesWithOrderedSuccessorsExecuted) {
  // 10k calls on one ordered stream against a guardian that admits two at
  // a time: every batch sheds most of its calls, so the stream's
  // execution gate must repeatedly pass over long runs of shed seqs or
  // the admitted successors behind them gate forever (a hang: this test
  // times out instead of failing an assertion if that regresses).
  GC.MaxPendingCalls = 2;
  build();
  auto Tick = Server->addHandler<int32_t(int32_t)>(
      "tick", [this](int32_t V) -> Outcome<int32_t> {
        Executed.push_back(V);
        S.sleep(usec(50));
        return V;
      });
  const int32_t N = 10000;
  int Normal = 0, Shed = 0;
  Client->spawnProcess("storm", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Tick);
    std::vector<Promise<int32_t>> Ps;
    Ps.reserve(N);
    for (int32_t I = 1; I <= N; ++I)
      Ps.push_back(H.streamCall(I));
    H.flush();
    for (auto &P : Ps) {
      const auto &O = P.claim();
      if (O.isNormal()) {
        ++Normal;
      } else {
        ASSERT_TRUE(O.is<Unavailable>());
        ASSERT_EQ(O.get<Unavailable>().Reason, core::reasons::Overloaded);
        ++Shed;
      }
    }
  });
  S.run();
  // Every call got exactly one conserving outcome.
  EXPECT_EQ(Normal + Shed, N);
  EXPECT_GE(Normal, 1000);
  EXPECT_GE(Shed, 1000);
  EXPECT_EQ(Server->callsShed(), static_cast<uint64_t>(Shed));
  EXPECT_EQ(Server->callsExecuted(), static_cast<uint64_t>(Normal));
  // Ordered successors executed in call order across every shed gap.
  ASSERT_EQ(Executed.size(), static_cast<size_t>(Normal));
  for (size_t I = 1; I < Executed.size(); ++I)
    EXPECT_LT(Executed[I - 1], Executed[I]);
  // Full quiescence: no leaked or still-gated call processes.
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
  EXPECT_EQ(Server->gatedCallCount(), 0u);
  EXPECT_EQ(S.liveProcessCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

TEST_F(ResilienceFixture, CancelMsgCodecRoundTrips) {
  stream::CancelMsg CM;
  CM.Agent = 9;
  CM.Group = 4;
  CM.Inc = 2;
  CM.Seqs = {3, 5, 8};
  auto B = stream::encodeMessage(stream::Message(CM));
  auto M = stream::decodeMessage(B);
  ASSERT_TRUE(M.has_value());
  ASSERT_TRUE(std::holds_alternative<stream::CancelMsg>(*M));
  EXPECT_EQ(std::get<stream::CancelMsg>(*M), CM);
}

} // namespace
