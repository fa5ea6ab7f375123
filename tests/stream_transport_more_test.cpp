//===- stream_transport_more_test.cpp - Transport edge cases --------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Second transport suite: protocol details beyond the basics — ack/probe
// traffic, delta reply batches, incarnation filtering, and counters.
//
//===----------------------------------------------------------------------===//

#include "KeptOutcome.h"

#include "promises/stream/StreamTransport.h"

#include <gtest/gtest.h>

#include <vector>

using namespace promises;
using namespace promises::stream;
using namespace promises::sim;

namespace {

wire::Bytes bytesOf(uint32_t V) {
  wire::Encoder E;
  E.writeU32(V);
  return E.take();
}

struct Fixture : ::testing::Test {
  Simulation S;
  net::NetConfig NC;
  StreamConfig SC;
  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<StreamTransport> Client, Server;
  net::NodeId CN = 0, SN = 0;

  /// Calls held for manual completion.
  std::vector<IncomingCall> Held;

  void build(bool HoldCalls = false) {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    CN = Net->addNode("client");
    SN = Net->addNode("server");
    Client = std::make_unique<StreamTransport>(*Net, CN, SC);
    Server = std::make_unique<StreamTransport>(*Net, SN, SC);
    if (HoldCalls) {
      Server->setCallSink(
          [this](IncomingCall IC) { Held.push_back(std::move(IC)); });
    } else {
      Server->setCallSink([](IncomingCall IC) {
        IC.Complete(ReplyStatus::Normal, 0, copyOf(IC.Args), "");
      });
    }
  }
};

TEST_F(Fixture, SenderAcksRepliesSoTheReceiverTrims) {
  build();
  AgentId A = Client->newAgent();
  int Got = 0;
  Client->issueCall(A, Server->address(), 1, 1, bytesOf(1), false, false,
                    [&](const ReplyOutcome &) { ++Got; });
  Client->flush(A, Server->address(), 1);
  S.run();
  EXPECT_EQ(Got, 1);
  // After quiescence an ack-only batch must have flowed (the reply was
  // consumed and the receiver told about it).
  EXPECT_GE(Client->counters().AckBatchesSent, 1u);
}

TEST_F(Fixture, ProbesFireOnlyWhenRepliesStall) {
  // A server that never completes: delivery acks flow, but fulfillment
  // stalls, so the sender probes — and breaks after the retry budget.
  SC.RetransmitTimeout = msec(15);
  SC.MaxRetries = 4;
  build(/*HoldCalls=*/true);
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome::Kind> Out;
  Client->issueCall(A, Server->address(), 1, 1, bytesOf(1), false, false,
                    [&](const ReplyOutcome &O) { Out.push_back(O.K); });
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], ReplyOutcome::Kind::Unavailable);
  EXPECT_GE(Client->counters().Probes, 1u);
  // Calls were delivered (acked), so these are probes, not retransmits.
  EXPECT_EQ(Client->counters().Retransmissions, 0u);
  EXPECT_EQ(Held.size(), 1u);
}

TEST_F(Fixture, NoProbesWhileProgressFlows) {
  // Slow-but-steady completion: the retransmit timer sees progress every
  // round and neither probes nor retransmits.
  SC.RetransmitTimeout = msec(8);
  build(/*HoldCalls=*/true);
  AgentId A = Client->newAgent();
  int Got = 0;
  for (uint32_t I = 0; I < 6; ++I)
    Client->issueCall(A, Server->address(), 1, 1, bytesOf(I), false, false,
                      [&](const ReplyOutcome &) { ++Got; });
  Client->flush(A, Server->address(), 1);
  // Complete one held call every 5ms (faster than the retry budget).
  S.spawn("server-worker", [&] {
    for (int I = 0; I < 6; ++I) {
      while (Held.size() <= static_cast<size_t>(I))
        S.sleep(msec(1));
      S.sleep(msec(5));
      Held[static_cast<size_t>(I)].Complete(ReplyStatus::Normal, 0, {}, "");
    }
  });
  S.run();
  EXPECT_EQ(Got, 6);
  EXPECT_EQ(Client->counters().Probes, 0u);
  EXPECT_EQ(Client->counters().Retransmissions, 0u);
  EXPECT_FALSE(Client->isBroken(A, Server->address(), 1));
}

TEST_F(Fixture, DeltaReplyBatchesDoNotResendOldReplies) {
  // With clean links, the bytes on the wire stay linear in call count:
  // each explicit reply is transmitted exactly once.
  SC.MaxBatchCalls = 4;
  SC.MaxReplyBatch = 4;
  build();
  AgentId A = Client->newAgent();
  int Got = 0;
  for (uint32_t I = 0; I < 64; ++I)
    Client->issueCall(A, Server->address(), 1, 1, bytesOf(I), false, false,
                      [&](const ReplyOutcome &) { ++Got; });
  Client->flush(A, Server->address(), 1);
  S.run();
  EXPECT_EQ(Got, 64);
  // Each reply ~21 bytes on the wire; allow generous overhead for
  // datagram and frame headers (10 bytes of checksummed frame per
  // datagram, amortized over each batch of 4). The state-shaped
  // alternative would send O(N^2/batch) reply bytes.
  EXPECT_LT(Net->counters().BytesSent, 64u * 130u);
}

TEST_F(Fixture, RepliesFromOldIncarnationAreDropped) {
  build(/*HoldCalls=*/true);
  AgentId A = Client->newAgent();
  std::vector<ReplyOutcome::Kind> Out;
  Client->issueCall(A, Server->address(), 1, 1, bytesOf(1), false, false,
                    [&](const ReplyOutcome &O) { Out.push_back(O.K); });
  Client->flush(A, Server->address(), 1);
  S.runFor(msec(10)); // Call delivered and held.
  ASSERT_EQ(Held.size(), 1u);
  // Restart: the outstanding call resolves unavailable; a new call goes
  // out on incarnation 2.
  Client->restart(A, Server->address(), 1);
  Client->issueCall(A, Server->address(), 1, 1, bytesOf(2), false, false,
                    [&](const ReplyOutcome &O) { Out.push_back(O.K); });
  Client->flush(A, Server->address(), 1);
  S.runFor(msec(10));
  // NOW the old incarnation's held call completes; its reply batch must
  // be ignored by the sender (stale incarnation), not fulfil call 1 of
  // incarnation 2.
  Held[0].Complete(ReplyStatus::Normal, 0, bytesOf(1), "");
  S.runFor(msec(10));
  ASSERT_EQ(Out.size(), 1u); // Only the restart-unavailable so far.
  EXPECT_EQ(Out[0], ReplyOutcome::Kind::Unavailable);
  // The second call is still outstanding, awaiting the *new* stream's
  // execution (held in Held[1] eventually).
  ASSERT_GE(Held.size(), 2u);
  Held[1].Complete(ReplyStatus::Normal, 0, bytesOf(2), "");
  S.run();
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[1], ReplyOutcome::Kind::Normal);
}

TEST_F(Fixture, ByteBasedBatchingCountsPayloads) {
  SC.MaxBatchCalls = 1000;
  SC.MaxBatchBytes = 100;
  SC.FlushInterval = sec(10);
  build();
  AgentId A = Client->newAgent();
  int Got = 0;
  // 30-byte payloads: transmits roughly every 4 calls.
  for (uint32_t I = 0; I < 12; ++I) {
    wire::Encoder E;
    for (int B = 0; B < 30; ++B)
      E.writeU8(static_cast<uint8_t>(B));
    Client->issueCall(A, Server->address(), 1, 1, E.take(), false, false,
                      [&](const ReplyOutcome &) { ++Got; });
  }
  S.run();
  EXPECT_EQ(Got, 12);
  EXPECT_GE(Client->counters().CallBatchesSent, 3u);
}

TEST_F(Fixture, SynchOnFreshStreamReturnsImmediately) {
  build();
  AgentId A = Client->newAgent();
  SynchResult SO;
  Time Took = 0;
  S.spawn("p", [&] {
    Time T0 = S.now();
    SO = Client->synch(A, Server->address(), 1);
    Took = S.now() - T0;
  });
  S.run();
  EXPECT_EQ(SO.K, SynchResult::Kind::AllNormal);
  EXPECT_EQ(Took, 0u);
}

TEST_F(Fixture, FlushOnUnknownStreamIsNoop) {
  build();
  Client->flush(Client->newAgent(), Server->address(), 1);
  S.run();
  EXPECT_EQ(Net->counters().DatagramsSent, 0u);
}

TEST_F(Fixture, MalformedDatagramsAreIgnored) {
  build();
  // Raw garbage straight at the transport's address.
  net::Address From = Net->bind(CN, [](net::Datagram) {});
  Net->send(From, Server->address(), wire::Bytes{0xde, 0xad, 0xbe, 0xef});
  Net->send(From, Server->address(), wire::Bytes{});
  S.run();
  EXPECT_EQ(Server->receiverStreamCount(), 0u);
}

TEST_F(Fixture, CountersTellAConsistentStory) {
  build();
  AgentId A = Client->newAgent();
  int Got = 0;
  for (uint32_t I = 0; I < 20; ++I)
    Client->issueCall(A, Server->address(), 1, 1, bytesOf(I), false, false,
                      [&](const ReplyOutcome &) { ++Got; });
  Client->flush(A, Server->address(), 1);
  S.run();
  const StreamCounters &C = Client->counters();
  const StreamCounters &Sv = Server->counters();
  EXPECT_EQ(C.CallsIssued, 20u);
  EXPECT_EQ(Sv.CallsDelivered, 20u);
  EXPECT_EQ(Sv.DuplicateCallsDropped, 0u);
  EXPECT_EQ(C.SenderBreaks, 0u);
  EXPECT_EQ(Sv.ReceiverBreaks, 0u);
  EXPECT_EQ(C.Restarts, 0u);
  EXPECT_GT(C.CallBatchesSent, 0u);
  EXPECT_GT(Sv.ReplyBatchesSent, 0u);
  EXPECT_EQ(Got, 20);
}

TEST_F(Fixture, SynchDoesNotHangOnTransportShutdown) {
  build(/*HoldCalls=*/true); // Server never completes.
  AgentId A = Client->newAgent();
  Client->issueCall(A, Server->address(), 1, 1, bytesOf(1), false, false,
                    /*OnReply=*/nullptr);
  SynchResult SO;
  bool Returned = false;
  S.spawn("syncher", [&] {
    SO = Client->synch(A, Server->address(), 1);
    Returned = true;
  });
  S.schedule(msec(5), [&] { Client->shutdown(); });
  S.runFor(msec(100));
  ASSERT_TRUE(Returned) << "synch hung on a dead transport";
  EXPECT_EQ(SO.K, SynchResult::Kind::Unavailable);
  EXPECT_EQ(SO.Reason, "transport shut down");
}

TEST_F(Fixture, RetransmitBatchesRespectConfiguredLimits) {
  // Regression: a retransmission used to resend the whole unacked window
  // as a single batch, ignoring MaxBatchCalls/MaxBatchBytes. Partition
  // the link so a large window accumulates, heal it, and check that every
  // retransmit batch stayed within the configured limit.
  SC.MaxBatchCalls = 4;
  SC.RetransmitTimeout = msec(10);
  SC.MaxRetries = 20; // Survive the partition.
  build();
  S.metrics().setEnabled(true);
  Net->setPartitioned(CN, SN, true);
  AgentId A = Client->newAgent();
  int Got = 0;
  for (uint32_t I = 0; I < 40; ++I)
    Client->issueCall(A, Server->address(), 1, 1, bytesOf(I), false, false,
                      [&](const ReplyOutcome &) { ++Got; });
  Client->flush(A, Server->address(), 1);
  S.schedule(msec(60), [&] { Net->setPartitioned(CN, SN, false); });
  S.run();
  EXPECT_EQ(Got, 40);
  EXPECT_FALSE(Client->isBroken(A, Server->address(), 1));
  EXPECT_GE(Client->counters().Retransmissions, 1u);
  EXPECT_GT(Client->counters().RetransmittedBytes, 0u);
  Histogram &H = S.metrics().histogram(
      "stream.retransmit_batch",
      {{"node", "client"}, {"epoch", "0"}, {"port", "1"}});
  ASSERT_GE(H.count(), 2u); // The window needed several chunks.
  EXPECT_LE(H.max(), 4.0);
}

TEST_F(Fixture, FullyBrokenStreamsGoQuietAndReincarnateOnReuse) {
  // Regression: broken sender streams could leave timers armed forever.
  // A broken stream keeps its record, quiet, until a later call on the
  // same key reincarnates it with incarnation continuity.
  SC.RetransmitTimeout = msec(5);
  SC.MaxRetries = 1;
  build();
  Net->setPartitioned(CN, SN, true);
  constexpr int N = 8;
  AgentId Agents[N];
  std::vector<ReplyOutcome::Kind> Out;
  for (int I = 0; I < N; ++I) {
    Agents[I] = Client->newAgent();
    Client->issueCall(Agents[I], Server->address(), 1, 1, bytesOf(1), false,
                      false,
                      [&](const ReplyOutcome &O) { Out.push_back(O.K); });
    Client->flush(Agents[I], Server->address(), 1);
  }
  S.run();
  // Every stream broke...
  ASSERT_EQ(Out.size(), static_cast<size_t>(N));
  for (ReplyOutcome::Kind K : Out)
    EXPECT_EQ(K, ReplyOutcome::Kind::Unavailable);
  // ...and went quiet: no armed timers, and isBroken() still answers.
  EXPECT_EQ(Client->armedTimerCount(), 0u);
  EXPECT_TRUE(Client->isBroken(Agents[0], Server->address(), 1));
  const StreamCounters C = Client->counters();
  EXPECT_EQ(C.CallsIssued, C.CallsFulfilled + C.CallsBroken);

  // Reuse after healing: the next call reincarnates past the dead
  // incarnation, and calls flow again.
  Net->setPartitioned(CN, SN, false);
  int Got = 0;
  for (int I = 0; I < N; ++I) {
    Client->issueCall(Agents[I], Server->address(), 1, 1, bytesOf(2), false,
                      false, [&](const ReplyOutcome &O) {
                        if (O.K == ReplyOutcome::Kind::Normal)
                          ++Got;
                      });
    Client->flush(Agents[I], Server->address(), 1);
  }
  S.run();
  EXPECT_EQ(Got, N);
  EXPECT_EQ(Client->counters().Restarts, static_cast<uint64_t>(N));
  EXPECT_EQ(Client->senderStreamCount(), static_cast<size_t>(N));
  EXPECT_EQ(Client->armedTimerCount(), 0u);
}

TEST_F(Fixture, SynchReportsAnEarlierBreakExactlyOnce) {
  // Companion to the reincarnation test above, pinning the synch-window
  // semantics: a break recorded while no process waited in synch must
  // still be reported — exactly once — by the next synch.
  SC.RetransmitTimeout = msec(5);
  SC.MaxRetries = 1;
  build();
  Net->setPartitioned(CN, SN, true);
  AgentId A = Client->newAgent();
  ReplyOutcome::Kind K{};
  Client->issueCall(A, Server->address(), 1, 1, bytesOf(1), false, false,
                    [&](const ReplyOutcome &O) { K = O.K; });
  Client->flush(A, Server->address(), 1);
  S.run();
  ASSERT_EQ(K, ReplyOutcome::Kind::Unavailable);

  Net->setPartitioned(CN, SN, false);
  SynchResult First, Second;
  S.spawn("p", [&] {
    First = Client->synch(A, Server->address(), 1);
    Second = Client->synch(A, Server->address(), 1);
  });
  S.run();
  // The first synch after the break reports its kind, with the
  // transport's reason...
  EXPECT_EQ(First.K, SynchResult::Kind::Unavailable);
  EXPECT_NE(First.Reason.find("cannot communicate"), std::string::npos)
      << First.Reason;
  // ...and the mark reset leaves the next window clean.
  EXPECT_EQ(Second.K, SynchResult::Kind::AllNormal);
}

TEST_F(Fixture, TwoTransportsCanTalkInBothDirections) {
  // Full duplex: each side is sender and receiver at once.
  build();
  Client->setCallSink([](IncomingCall IC) {
    IC.Complete(ReplyStatus::Normal, 0, copyOf(IC.Args), "");
  });
  int GotAtClient = 0, GotAtServer = 0;
  AgentId CA = Client->newAgent();
  AgentId SA = Server->newAgent();
  for (uint32_t I = 0; I < 10; ++I) {
    Client->issueCall(CA, Server->address(), 1, 1, bytesOf(I), false, false,
                      [&](const ReplyOutcome &) { ++GotAtClient; });
    Server->issueCall(SA, Client->address(), 1, 1, bytesOf(I), false, false,
                      [&](const ReplyOutcome &) { ++GotAtServer; });
  }
  Client->flush(CA, Server->address(), 1);
  Server->flush(SA, Client->address(), 1);
  S.run();
  EXPECT_EQ(GotAtClient, 10);
  EXPECT_EQ(GotAtServer, 10);
}

} // namespace
