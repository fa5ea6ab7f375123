//===- wire_integrity_test.cpp - Corruption/duplication at the stream ----===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
//
// End-to-end wire integrity through the call-stream transport: frames
// damaged in flight are detected by the checksum, dropped, counted, traced,
// and recovered by retransmission; duplicated datagrams never double-execute
// a call; frame-valid but undecodable payloads are counted as a distinct
// (local-bug) class. See docs/PROTOCOL.md "Wire integrity".
//
//===----------------------------------------------------------------------===//

#include "KeptOutcome.h"

#include "promises/stream/StreamTransport.h"
#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

uint32_t u32Of(const wire::Bytes &B) {
  wire::Decoder D(B);
  return D.readU32();
}

constexpr PortId EchoPort = 1;

struct IntegrityFixture : ::testing::Test {
  Simulation S;
  net::NetConfig NC;
  StreamConfig SC;

  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<StreamTransport> Client, Server;
  net::NodeId CN = 0, SN = 0;

  /// Handler executions per (stream tag, seq): the exactly-once ledger.
  std::map<std::pair<uint64_t, Seq>, int> Deliveries;

  void build() {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    CN = Net->addNode("client");
    SN = Net->addNode("server");
    Client = std::make_unique<StreamTransport>(*Net, CN, SC);
    Server = std::make_unique<StreamTransport>(*Net, SN, SC);
    Server->setCallSink([this](IncomingCall IC) {
      ++Deliveries[{IC.StreamTag, IC.CallSeq}];
      IC.Complete(ReplyStatus::Normal, 0, copyOf(IC.Args), "");
    });
  }

  void call(AgentId A, uint32_t Arg, std::vector<KeptOutcome> &Out) {
    auto R = Client->issueCall(A, Server->address(), /*Group=*/1, EchoPort,
                               bytesOf(Arg), /*NoReply=*/false,
                               /*IsRpc=*/false,
                               [&Out](const ReplyOutcome &O) {
                                 Out.push_back(O);
                               });
    ASSERT_TRUE(R.Issued);
  }

  uint64_t eventCount(EventKind K, const std::string &Detail = "") {
    uint64_t N = 0;
    for (const TraceEvent &E : S.metrics().events())
      if (E.Kind == K && (Detail.empty() || E.Detail == Detail))
        ++N;
    return N;
  }
};

TEST_F(IntegrityFixture, CorruptionIsDetectedAndRecovered) {
  build();
  S.metrics().setEnabled(true);
  // Corrupt every datagram for the first few milliseconds, then relent so
  // retransmission can win. The calls issued during the outage must all
  // complete normally, in order, exactly once.
  Net->setCorruptRate(1.0);
  S.schedule(msec(10), [&] { Net->setCorruptRate(0.0); });

  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  for (uint32_t I = 0; I != 8; ++I)
    call(A, I, Out);
  S.run();

  ASSERT_EQ(Out.size(), 8u);
  for (uint32_t I = 0; I != 8; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
  for (const auto &[Key, N] : Deliveries)
    EXPECT_EQ(N, 1) << "seq " << Key.second << " executed " << N << " times";

  // Damage actually happened and was caught: the network corrupted copies,
  // the transports rejected exactly that many frames (checksum or header),
  // and every drop was traced with a cause.
  auto NetC = Net->counters();
  EXPECT_GT(NetC.DatagramsCorrupted, 0u);
  uint64_t Dropped = Client->counters().FramesCorruptDropped +
                     Server->counters().FramesCorruptDropped;
  EXPECT_GT(Dropped, 0u);
  EXPECT_LE(Dropped, NetC.DatagramsCorrupted);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped), Dropped);
  EXPECT_EQ(eventCount(EventKind::DatagramCorrupted), NetC.DatagramsCorrupted);
  // Nothing slipped past the checksum into the decoder.
  EXPECT_EQ(Client->counters().MalformedDropped, 0u);
  EXPECT_EQ(Server->counters().MalformedDropped, 0u);
}

TEST_F(IntegrityFixture, DuplicatedDatagramsNeverDoubleExecute) {
  // Satellite regression: with *every* datagram duplicated (and a little
  // ambient loss to force retransmits on top), per-stream dedup must keep
  // execution exactly-once and completion exactly-once.
  NC.DupRate = 1.0;
  NC.LossRate = 0.05;
  NC.Seed = 7;
  build();

  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  for (uint32_t I = 0; I != 32; ++I)
    call(A, I, Out);
  S.run();

  // Every call completed exactly once, in issue order.
  ASSERT_EQ(Out.size(), 32u);
  for (uint32_t I = 0; I != 32; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
  // Every call executed exactly once despite the duplicate deliveries.
  EXPECT_EQ(Deliveries.size(), 32u);
  for (const auto &[Key, N] : Deliveries)
    EXPECT_EQ(N, 1) << "seq " << Key.second << " executed " << N << " times";
  EXPECT_GT(Net->counters().DatagramsDuplicated, 0u);
  EXPECT_GT(Server->counters().DuplicateCallsDropped, 0u);
}

TEST_F(IntegrityFixture, GarbageDatagramsAreRejectedWithCause) {
  build();
  S.metrics().setEnabled(true);
  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  call(A, 1, Out);
  // Inject raw damage straight at the server's bound port: garbage bytes,
  // a truncated header, and a frame whose magic byte is wrong.
  S.schedule(usec(1), [&] {
    Net->send(Client->address(), Server->address(), {0xDE, 0xAD, 0xBE, 0xEF});
    Net->send(Client->address(), Server->address(), {wire::FrameMagic});
    wire::Bytes F = wire::sealFrame(bytesOf(9));
    F[0] ^= 0xFF;
    Net->send(Client->address(), Server->address(), F);
  });
  S.run();

  // The stream itself is unharmed.
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].K, ReplyOutcome::Kind::Normal);
  // All three injections were dropped pre-decode with distinct causes.
  EXPECT_EQ(Server->counters().FramesCorruptDropped, 3u);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped, "truncated"), 2u);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped, "bad magic"), 1u);
}

TEST_F(IntegrityFixture, MalformedButChecksummedPayloadIsCountedAsLocalBug) {
  build();
  S.metrics().setEnabled(true);
  // A frame that passes every integrity check but whose payload is not a
  // stream message models a *local* encode bug, not line noise; it gets
  // its own counter and trace detail so chaos can flag any occurrence.
  S.schedule(usec(1), [&] {
    Net->send(Client->address(), Server->address(),
              wire::sealFrame({0x77, 0x01, 0x02}));
  });
  S.run();
  EXPECT_EQ(Server->counters().MalformedDropped, 1u);
  EXPECT_EQ(Server->counters().FramesCorruptDropped, 0u);
  EXPECT_EQ(eventCount(EventKind::FrameCorruptDropped, "malformed message"),
            1u);
}

TEST_F(IntegrityFixture, ReplyBatchBeyondWhatWasIssuedIsDropped) {
  // A checksummed reply batch that claims completions past the calls the
  // stream issued would make the sender wait on reply slots that do not
  // exist. It is dropped whole and counted; the real replies still land.
  build();
  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  for (uint32_t I = 0; I != 3; ++I)
    call(A, I, Out);
  ReplyBatchMsg Forged;
  Forged.Agent = A;
  Forged.Group = 1;
  Forged.Inc = 1;
  Forged.CompletedThrough = 100;
  S.schedule(usec(1), [&] {
    Net->send(Server->address(), Client->address(),
              encodeFramedMessage(Forged));
  });
  S.run();
  EXPECT_EQ(Client->counters().MalformedDropped, 1u);
  ASSERT_EQ(Out.size(), 3u);
  for (uint32_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
}

TEST_F(IntegrityFixture, CallTooFarAheadIsDroppedAsLost) {
  // A checksummed call batch whose second call sits 2^30 seqs ahead would
  // make the receive window span the gap. That call is dropped as lost and
  // counted; the first call of the batch, and another stream's calls, run.
  build();
  CallBatchMsg Forged;
  Forged.Agent = 99;
  Forged.Group = 1;
  for (Seq Q : {Seq{1}, Seq{1} << 30}) {
    CallReq C;
    C.S = Q;
    C.Port = EchoPort;
    C.Args = bytesOf(7);
    Forged.Calls.push_back(std::move(C));
  }
  S.schedule(usec(1), [&] {
    Net->send(Client->address(), Server->address(),
              encodeFramedMessage(Forged));
  });
  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  for (uint32_t I = 0; I != 3; ++I)
    call(A, I, Out);
  S.run();
  EXPECT_EQ(Server->counters().MalformedDropped, 1u);
  EXPECT_EQ(Deliveries.size(), 4u) << "the forged seq 1 and three real calls";
  ASSERT_EQ(Out.size(), 3u);
  for (uint32_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
}

TEST_F(IntegrityFixture, CancelTooFarAheadIsDropped) {
  // A checksummed cancel naming a seq 2^20 past the receiver's next would
  // park it until delivery reached it, which no real stream does; enough
  // of them grow the receiver without bound. That seq is dropped and the
  // datagram counted once; the in-range seq it names still cancels.
  build();
  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  for (uint32_t I = 0; I != 3; ++I)
    call(A, I, Out);
  S.run(); // Seqs 1-3 done: the receiver expects seq 4 next.
  CancelMsg Forged;
  Forged.Agent = A;
  Forged.Group = 1;
  Forged.Seqs = {5, 4 + Seq{wire::MaxSequenceElems}};
  Net->send(Client->address(), Server->address(),
            encodeFramedMessage(Forged));
  S.run();
  EXPECT_EQ(Server->counters().MalformedDropped, 1u);
  for (uint32_t I = 3; I != 6; ++I)
    call(A, I, Out);
  S.run();
  ASSERT_EQ(Out.size(), 6u);
  for (uint32_t I : {0u, 1u, 2u, 3u, 5u}) {
    EXPECT_EQ(Out[I].K, ReplyOutcome::Kind::Normal);
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  }
  EXPECT_EQ(Out[4].K, ReplyOutcome::Kind::Unavailable);
  EXPECT_EQ(Out[4].Reason, core::reasons::Cancelled);
  EXPECT_EQ(Deliveries.size(), 5u) << "the cancelled seq 5 never runs";
  EXPECT_EQ(Server->counters().CallsCancelled, 1u);
  EXPECT_EQ(Server->counters().MalformedDropped, 1u);
}

TEST_F(IntegrityFixture, ReorderingPreservesCallOrder) {
  // Heavy reordering: most copies suffer up to 2ms of extra delay, far
  // larger than the inter-send gap, so datagrams routinely overtake each
  // other. Sequence numbers must still deliver calls in issue order.
  NC.ReorderRate = 0.75;
  NC.ReorderMax = msec(2);
  NC.Seed = 11;
  build();

  AgentId A = Client->newAgent();
  std::vector<KeptOutcome> Out;
  for (uint32_t I = 0; I != 24; ++I)
    call(A, I, Out);
  S.run();

  ASSERT_EQ(Out.size(), 24u);
  for (uint32_t I = 0; I != 24; ++I)
    EXPECT_EQ(u32Of(Out[I].Payload), I);
  // Executions happened in seq order per stream (the map is sorted by
  // (tag, seq); deliveries to the sink follow issue order by contract).
  for (const auto &[Key, N] : Deliveries)
    EXPECT_EQ(N, 1);
}

} // namespace
