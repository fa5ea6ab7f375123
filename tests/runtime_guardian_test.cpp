//===- runtime_guardian_test.cpp - Guardian/typed-call tests --------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

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

struct NoSuchStudent {
  static constexpr const char *Name = "no_such_student";
  std::string Who;
};

} // namespace

namespace promises::wire {
template <> struct Codec<NoSuchStudent> {
  static void encode(Encoder &E, const NoSuchStudent &V) {
    E.writeString(V.Who);
  }
  static NoSuchStudent decode(Decoder &D) { return {D.readString()}; }
};
} // namespace promises::wire

namespace {

struct RuntimeFixture : ::testing::Test {
  Simulation S;
  net::NetConfig NC;
  GuardianConfig GC;

  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<Guardian> Server, Client;
  net::NodeId SN = 0, CN = 0;

  // Server-side state.
  std::map<std::string, std::vector<int32_t>> Grades;
  std::vector<std::string> ExecLog;

  using RecordGradeRef = HandlerRef<double(std::string, int32_t),
                                    NoSuchStudent>;
  RecordGradeRef RecordGrade;
  HandlerRef<int32_t(int32_t)> Slow;
  HandlerRef<wire::Unit(std::string)> Note;
  HandlerRef<wire::Fragile(wire::Fragile)> Echo;

  void build() {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    SN = Net->addNode("server");
    CN = Net->addNode("client");
    Server = std::make_unique<Guardian>(*Net, SN, "server", GC);
    Client = std::make_unique<Guardian>(*Net, CN, "client", GC);

    RecordGrade =
        Server->addHandler<double(std::string, int32_t), NoSuchStudent>(
            "record_grade",
            [this](std::string Stu,
                   int32_t Grade) -> Outcome<double, NoSuchStudent> {
              if (Stu.empty())
                return NoSuchStudent{Stu};
              auto &Gs = Grades[Stu];
              Gs.push_back(Grade);
              double Sum = 0;
              for (int32_t G : Gs)
                Sum += G;
              return Sum / static_cast<double>(Gs.size());
            });

    Slow = Server->addHandler<int32_t(int32_t)>(
        "slow", [this](int32_t V) -> Outcome<int32_t> {
          ExecLog.push_back("start:" + std::to_string(V));
          S.sleep(msec(5)); // Service time; runs in a process.
          ExecLog.push_back("end:" + std::to_string(V));
          return V * 10;
        });

    Note = Server->addHandler<wire::Unit(std::string)>(
        "note", [this](std::string Msg) -> Outcome<wire::Unit> {
          ExecLog.push_back("note:" + Msg);
          return wire::Unit{};
        });

    Echo = Server->addHandler<wire::Fragile(wire::Fragile)>(
        "echo", [](wire::Fragile F) -> Outcome<wire::Fragile> { return F; });
  }
};

TEST_F(RuntimeFixture, RpcReturnsNormalResult) {
  build();
  double Avg = -1;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), RecordGrade);
    auto O = H.call(std::string("ann"), int32_t(90));
    ASSERT_TRUE(O.isNormal());
    Avg = O.value();
  });
  S.run();
  EXPECT_EQ(Avg, 90.0);
  ASSERT_EQ(Grades["ann"].size(), 1u);
}

TEST_F(RuntimeFixture, RpcPropagatesDeclaredException) {
  build();
  bool SawExn = false;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), RecordGrade);
    H.call(std::string(""), int32_t(50))
        .visit(Visitor{
            [](const double &) { FAIL() << "expected exception"; },
            [&](const NoSuchStudent &E) {
              SawExn = true;
              EXPECT_EQ(E.Who, "");
            },
            [](const auto &) { FAIL() << "expected no_such_student"; },
        });
  });
  S.run();
  EXPECT_TRUE(SawExn);
}

TEST_F(RuntimeFixture, UnknownPortFails) {
  build();
  bool SawFailure = false;
  Client->spawnProcess("main", [&] {
    HandlerRef<int32_t(int32_t)> Bogus;
    Bogus.Entity = Server->address();
    Bogus.Group = Guardian::DefaultGroup;
    Bogus.Port = 9999;
    auto H = bindHandler(*Client, Client->newAgent(), Bogus);
    auto O = H.call(int32_t(1));
    SawFailure = O.is<Failure>();
    EXPECT_EQ(O.get<Failure>().Reason, "no such port");
  });
  S.run();
  EXPECT_TRUE(SawFailure);
}

TEST_F(RuntimeFixture, StreamCallsOverlapCaller) {
  build();
  std::vector<Promise<int32_t>> Ps;
  Time AllIssuedAt = 0;
  std::vector<int32_t> Results;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    for (int32_t I = 0; I < 4; ++I)
      Ps.push_back(H.streamCall(I));
    // Issuing pays only local encode CPU, never waits for a reply.
    AllIssuedAt = S.now();
    H.flush();
    for (auto &P : Ps)
      Results.push_back(P.claim().value());
  });
  S.run();
  EXPECT_LT(AllIssuedAt, msec(1));
  EXPECT_EQ(Results, (std::vector<int32_t>{0, 10, 20, 30}));
}

TEST_F(RuntimeFixture, CallsOnOneStreamExecuteInOrder) {
  build();
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P1 = H.streamCall(int32_t(1));
    auto P2 = H.streamCall(int32_t(2));
    auto P3 = H.streamCall(int32_t(3));
    H.flush();
    P3.claim();
    // Promise readiness is ordered: if 3 is ready, 1 and 2 are.
    EXPECT_TRUE(P1.ready());
    EXPECT_TRUE(P2.ready());
  });
  S.run();
  // Executions never interleave within a stream.
  EXPECT_EQ(ExecLog,
            (std::vector<std::string>{"start:1", "end:1", "start:2", "end:2",
                                      "start:3", "end:3"}));
}

TEST_F(RuntimeFixture, OneProcessRunsAPipelinedStream) {
  // Process-per-stream (paper, Section 4.3): 16 pipelined calls on one
  // serial stream share one server process, and 15 of them wait in the
  // stream's table while the first runs.
  build();
  size_t GatedDuringFirst = 0;
  auto Nap = Server->addHandler<int32_t(int32_t)>(
      "nap", [&](int32_t V) -> Outcome<int32_t> {
        S.sleep(msec(1));
        if (V == 0)
          GatedDuringFirst = Server->gatedCallCount();
        return V;
      });
  uint64_t Spawned = 0;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Nap);
    uint64_t Before = S.processesSpawned();
    std::vector<Promise<int32_t>> Ps;
    for (int32_t I = 0; I < 16; ++I)
      Ps.push_back(H.streamCall(I));
    H.flush();
    for (int32_t I = 0; I < 16; ++I)
      EXPECT_EQ(Ps[I].claim().value(), I);
    Spawned = S.processesSpawned() - Before;
  });
  S.run();
  EXPECT_EQ(GatedDuringFirst, 15u);
  EXPECT_EQ(Spawned, 1u) << "one runner for the whole batch";
  EXPECT_EQ(Server->callsExecuted(), 16u);
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
}

TEST_F(RuntimeFixture, CallsOnDifferentStreamsInterleave) {
  // The mailer scenario: two clients' calls run concurrently, while each
  // client's own calls stay ordered.
  build();
  Client->spawnProcess("c1", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  Client->spawnProcess("c2", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(2));
    H.flush();
    P.claim();
  });
  S.run();
  // Both starts happen before both ends: the two service periods overlap.
  ASSERT_EQ(ExecLog.size(), 4u);
  EXPECT_EQ(ExecLog[0].substr(0, 5), "start");
  EXPECT_EQ(ExecLog[1].substr(0, 5), "start");
}

TEST_F(RuntimeFixture, PromiseReadinessIsOrderedUnderJitter) {
  NC.JitterMax = msec(5);
  NC.Seed = 31;
  GC.Stream.MaxBatchCalls = 2;
  build();
  std::vector<Promise<int32_t>> Ps;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    for (int32_t I = 0; I < 12; ++I)
      Ps.push_back(H.streamCall(I));
    H.flush();
    // Poll: whenever promise i+1 is ready, promise i must be ready.
    while (!Ps.back().ready()) {
      for (size_t I = 0; I + 1 < Ps.size(); ++I)
        if (Ps[I + 1].ready()) {
          EXPECT_TRUE(Ps[I].ready()) << "readiness order violated at " << I;
        }
      S.sleep(msec(1));
    }
  });
  S.run();
}

TEST_F(RuntimeFixture, SendAndSynchReportExceptions) {
  build();
  SynchResult R1, R2;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), RecordGrade);
    // Discard results: stream as a statement.
    EXPECT_FALSE(H.send(std::string("bob"), int32_t(80)).has_value());
    EXPECT_FALSE(H.send(std::string(""), int32_t(1)).has_value());
    R1 = H.synch();
    EXPECT_FALSE(H.send(std::string("bob"), int32_t(60)).has_value());
    R2 = H.synch();
  });
  S.run();
  EXPECT_EQ(R1.K, SynchResult::Kind::ExceptionReply);
  ASSERT_TRUE(R1.toExn().has_value());
  EXPECT_EQ(R1.toExn()->Name, "exception_reply");
  EXPECT_TRUE(R2.ok());
  EXPECT_EQ(Grades["bob"].size(), 2u);
}

TEST_F(RuntimeFixture, ArgumentEncodeFailureFailsWithoutCalling) {
  build();
  bool SawFailure = false;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    wire::Fragile F;
    F.FailEncode = true;
    auto P = H.streamCall(F);
    // Born ready: no call was made (paper: "no promise object is
    // created" — here, a promise that already carries the failure).
    ASSERT_TRUE(P.ready());
    SawFailure = P.claim().is<Failure>();
  });
  S.run();
  EXPECT_TRUE(SawFailure);
  EXPECT_EQ(Server->callsExecuted(), 0u);
}

TEST_F(RuntimeFixture, ArgumentDecodeFailureFailsCallAndBreaksStream) {
  build();
  std::vector<const char *> Kinds;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    wire::Fragile Ok;
    Ok.Value = 1;
    wire::Fragile Bad;
    Bad.FailDecode = true;
    auto P1 = H.streamCall(Ok);
    auto P2 = H.streamCall(Bad);
    auto P3 = H.streamCall(Ok);
    H.flush();
    Kinds.push_back(P1.claim().exceptionName());
    Kinds.push_back(P2.claim().exceptionName());
    Kinds.push_back(P3.claim().exceptionName());
    EXPECT_TRUE(P2.claim().get<Failure>().Reason.find("could not decode") !=
                std::string::npos);
  });
  S.run();
  ASSERT_EQ(Kinds.size(), 3u);
  EXPECT_STREQ(Kinds[0], "");        // Before the bad call: unaffected.
  EXPECT_STREQ(Kinds[1], "failure"); // The bad call fails...
  EXPECT_STREQ(Kinds[2], "failure"); // ...and the break kills the rest.
  // Call 2 broke its own stream while call 3 waited behind it: the queued
  // call is the one orphan, and nothing stays live or queued.
  EXPECT_EQ(Server->orphansDestroyed(), 1u);
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
  EXPECT_EQ(Server->gatedCallCount(), 0u);
}

TEST_F(RuntimeFixture, ResultEncodeFailureBreaksStream) {
  build();
  bool SawFailure = false;
  Client->spawnProcess("main", [&] {
    wire::Fragile F;
    F.Value = 3;
    F.FailEncode = false;
    // The handler echoes the value back; make the *result* encoding fail
    // by asking the server's copy to fail on encode. The decode of the
    // argument sets FailEncode=false on the wire... so instead register a
    // dedicated handler whose result always fails to encode.
    auto BadRef = Server->addHandler<wire::Fragile(int32_t)>(
        "bad_result", [](int32_t) -> Outcome<wire::Fragile> {
          wire::Fragile R;
          R.FailEncode = true;
          return R;
        });
    auto BH = bindHandler(*Client, Client->newAgent(), BadRef);
    auto O = BH.call(int32_t(0));
    SawFailure = O.is<Failure>() &&
                 O.get<Failure>().Reason.find("could not encode") !=
                     std::string::npos;
  });
  S.run();
  EXPECT_TRUE(SawFailure);
}

TEST_F(RuntimeFixture, HandlerRefsTravelAsValues) {
  // The window-system pattern: a handler that returns another port.
  build();
  auto MakeCounter = [this] {
    auto Count = std::make_shared<int32_t>(0); // Owned by the handler.
    return Server->addHandler<int32_t(int32_t)>(
        "bump", [Count](int32_t By) -> Outcome<int32_t> {
          *Count += By;
          return *Count;
        });
  };
  using CounterRef = HandlerRef<int32_t(int32_t)>;
  auto Factory = Server->addHandler<CounterRef(wire::Unit)>(
      "make_counter", [&](wire::Unit) -> Outcome<CounterRef> {
        return MakeCounter();
      });
  int32_t Result = 0;
  Client->spawnProcess("main", [&] {
    auto F = bindHandler(*Client, Client->newAgent(), Factory);
    auto O = F.call(wire::Unit{});
    ASSERT_TRUE(O.isNormal());
    auto Counter = bindHandler(*Client, Client->newAgent(), O.value());
    Counter.call(int32_t(5));
    Result = Counter.call(int32_t(2)).value();
  });
  S.run();
  EXPECT_EQ(Result, 7);
}

TEST_F(RuntimeFixture, ServerCrashYieldsUnavailable) {
  GC.Stream.RetransmitTimeout = msec(10);
  GC.Stream.MaxRetries = 2;
  build();
  std::vector<const char *> Kinds;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P1 = H.streamCall(int32_t(1));
    H.flush();
    S.sleep(msec(1));
    Net->crash(SN);
    auto P2 = H.streamCall(int32_t(2));
    H.flush();
    Kinds.push_back(P1.claim().exceptionName());
    Kinds.push_back(P2.claim().exceptionName());
  });
  S.run();
  ASSERT_EQ(Kinds.size(), 2u);
  // Both calls report unavailable: the crash hit before any reply.
  EXPECT_STREQ(Kinds[0], "unavailable");
  EXPECT_STREQ(Kinds[1], "unavailable");
  EXPECT_TRUE(Server->crashed());
}

TEST_F(RuntimeFixture, CrashKillsGuardianProcesses) {
  build();
  bool Finished = false;
  Server->spawnProcess("background", [&] {
    S.sleep(sec(100));
    Finished = true;
  });
  S.schedule(msec(5), [&] { Net->crash(SN); });
  S.run();
  EXPECT_FALSE(Finished);
  EXPECT_LT(S.now(), sec(100));
}

TEST_F(RuntimeFixture, CrashDropsCallsQueuedBehindARunningOne) {
  // A queued call has no process of its own to unwind, so the crash must
  // drop it from the stream's table.
  GC.Stream.RetransmitTimeout = msec(10);
  GC.Stream.MaxRetries = 2;
  build();
  size_t GatedAtCrash = 0;
  std::vector<std::string> Kinds;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    std::vector<Promise<int32_t>> Ps;
    for (int32_t I = 1; I <= 3; ++I)
      Ps.push_back(H.streamCall(I));
    H.flush();
    S.sleep(msec(3)); // Call 1 is executing (5ms); 2 and 3 wait behind it.
    GatedAtCrash = Server->gatedCallCount();
    Net->crash(SN);
    for (auto &P : Ps)
      Kinds.push_back(P.claim().exceptionName());
  });
  S.run();
  EXPECT_EQ(GatedAtCrash, 2u);
  EXPECT_EQ(ExecLog, (std::vector<std::string>{"start:1"}));
  EXPECT_EQ(Kinds, (std::vector<std::string>(3, "unavailable")));
  EXPECT_TRUE(Server->crashed());
  EXPECT_EQ(Server->liveCallProcessCount(), 0u);
  EXPECT_EQ(Server->gatedCallCount(), 0u);
}

TEST_F(RuntimeFixture, WoundedProcessCannotMakeRemoteCalls) {
  build();
  bool SawUnavailable = false;
  sim::ProcessHandle Victim;
  Victim = Client->spawnProcess("victim", [&] {
    S.sleep(msec(5)); // Wounded during this sleep.
    auto H = bindHandler(*Client, Client->newAgent(), Slow);
    auto P = H.streamCall(int32_t(1));
    ASSERT_TRUE(P.ready());
    SawUnavailable = P.claim().is<Unavailable>();
  });
  S.schedule(msec(1), [&] { S.wound(Victim); });
  S.run();
  EXPECT_TRUE(SawUnavailable);
  EXPECT_EQ(Server->callsExecuted(), 0u);
}

TEST_F(RuntimeFixture, PortGroupsOrderIndependently) {
  // Calls from one agent to ports in *different groups* are different
  // streams: a slow call in group A must not delay a call in group B.
  build();
  auto GroupB = Server->createGroup();
  auto FastB = Server->addHandler<int32_t(int32_t)>(
      "fastB", GroupB, [](int32_t V) -> Outcome<int32_t> { return V; });
  Time FastDone = 0, SlowDone = 0;
  Client->spawnProcess("main", [&] {
    auto A = Client->newAgent();
    auto HSlow = bindHandler(*Client, A, Slow);
    auto HFast = bindHandler(*Client, A, FastB);
    auto P1 = HSlow.streamCall(int32_t(1)); // 5ms service time.
    auto P2 = HFast.streamCall(int32_t(2));
    HSlow.flush();
    HFast.flush();
    P2.claim();
    FastDone = S.now();
    P1.claim();
    SlowDone = S.now();
  });
  S.run();
  EXPECT_LT(FastDone, SlowDone); // B's reply did not wait for A's.
}

TEST_F(RuntimeFixture, NestedCallsCascadeAcrossGuardians) {
  // A handler that itself makes a remote call to a third guardian.
  build();
  net::NodeId TN = Net->addNode("third");
  auto Third = std::make_unique<Guardian>(*Net, TN, "third", GC);
  auto Square = Third->addHandler<int32_t(int32_t)>(
      "square", [](int32_t V) -> Outcome<int32_t> { return V * V; });
  auto SquarePlusOne = Server->addHandler<int32_t(int32_t)>(
      "square_plus_one", [&, Square](int32_t V) -> Outcome<int32_t> {
        auto H = bindHandler(*Server, Server->newAgent(), Square);
        auto O = H.call(V);
        if (!O.isNormal())
          return Failure{"downstream failed"};
        return O.value() + 1;
      });
  int32_t Result = 0;
  Client->spawnProcess("main", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), SquarePlusOne);
    Result = H.call(int32_t(6)).value();
  });
  S.run();
  EXPECT_EQ(Result, 37);
}

TEST_F(RuntimeFixture, SendReportsBornReadyFailureExactlyOnce) {
  // Regression: send() used to both claim() a born-ready promise and then
  // claim it again to build the returned exception. The failure must be
  // claimed once and surfaced as the returned Exn.
  GC.Stream.RetransmitTimeout = msec(5);
  GC.Stream.MaxRetries = 1;
  build();
  std::optional<core::Exn> First, Second;
  SynchResult SR;
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Note);
    Net->crash(SN);
    // Issued before the break is known: the promise is pending, so send
    // reports nothing locally (the break surfaces at synch).
    First = H.send(std::string("one"));
    SR = H.synch(); // Blocks until the retransmit timer breaks the stream.
    // On a shut-down transport this send fails immediately with a
    // born-ready promise.
    Client->transport().shutdown();
    Second = H.send(std::string("two"));
  });
  S.run();
  EXPECT_FALSE(First.has_value());
  EXPECT_EQ(SR.K, SynchResult::Kind::Unavailable);
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(Second->Name, "unavailable");
  EXPECT_TRUE(ExecLog.empty()); // The server never ran either note.
}

TEST_F(RuntimeFixture, RestartedGuardianCountsOnlyItsOwnCalls) {
  // A guardian rebuilt on a restarted node, under the same name, must not
  // inherit the counter cells of the incarnation that died there.
  build();
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Note);
    for (int I = 0; I != 5; ++I)
      H.send(std::string("old"));
    EXPECT_TRUE(H.synch().ok());
  });
  S.run();
  ASSERT_EQ(Server->callsExecuted(), 5u);

  Net->crash(SN);
  Net->restart(SN);
  Guardian Fresh(*Net, SN, "server", GC);
  EXPECT_EQ(Fresh.callsExecuted(), 0u);
  EXPECT_EQ(Fresh.transport().counters().CallsDelivered, 0u);

  auto FreshNote = Fresh.addHandler<wire::Unit(std::string)>(
      "note", [](std::string) -> Outcome<wire::Unit> { return wire::Unit{}; });
  Client->spawnProcess("driver2", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), FreshNote);
    for (int I = 0; I != 2; ++I)
      H.send(std::string("new"));
    EXPECT_TRUE(H.synch().ok());
  });
  S.run();
  EXPECT_EQ(Fresh.callsExecuted(), 2u);
  EXPECT_EQ(Fresh.transport().counters().CallsDelivered, 2u);
  EXPECT_EQ(Server->callsExecuted(), 5u);
}

TEST_F(RuntimeFixture, HandlerRefCodecRoundTrips) {
  build();
  auto B = wire::encodeToBytes(RecordGrade);
  ASSERT_TRUE(B.has_value());
  auto Dec = wire::decodeFromBytes<RecordGradeRef>(*B);
  ASSERT_TRUE(Dec.has_value());
  EXPECT_EQ(*Dec, RecordGrade);
}

} // namespace
