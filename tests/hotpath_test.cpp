//===- hotpath_test.cpp - Hot-path allocation & flat-window tests ---------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Regression tests for the cache-conscious hot paths:
//
//  * SeqRing (the flat replacement for the transport's std::map windows):
//    wrap past capacity, sparse ranges, erase/re-insert, iteration order.
//  * Zero-copy frame sealing: encodeFramedMessage is byte-identical to
//    the legacy encode-then-seal pipeline, costs exactly one allocation,
//    and copies zero payload bytes; call and reply batches seal straight
//    out of the transport's windows, byte-identical to built messages.
//  * Promise slab: steady-state promise churn allocates nothing.
//  * The timed-event heap: generation-checked cancellation semantics.
//  * The datagram path: a network send→deliver allocates only its
//    payload, an arriving frame only the buffers its decode hands on, and
//    a flushed call batch only its frame.
//  * InlineFunction: captures up to InlineFunctionBytes never allocate.
//  * Trace recording: an event whose detail the registry has seen before
//    is stored without an allocation.
//  * End-to-end allocation budgets: a transport round trip stays under an
//    allocation ceiling (the bench's machine-independent companion), a
//    typed stream call through Guardian and RemoteHandler makes an exact
//    number of allocations, and so does opening a stream, which also
//    leaves an exact number of bytes held.
//
// This binary installs a global operator-new hook, so it holds every test
// that counts allocations or held bytes; keep hook-free tests in the
// other suites.
//
//===----------------------------------------------------------------------===//

#include "KeptOutcome.h"

#include "promises/apps/KvStore.h"
#include "promises/core/Promise.h"
#include "promises/net/Network.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/sim/Simulation.h"
#include "promises/stream/Messages.h"
#include "promises/stream/SeqRing.h"
#include "promises/stream/StreamTransport.h"
#include "promises/support/InlineFunction.h"
#include "promises/support/Metrics.h"
#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>

using namespace promises;

//===----------------------------------------------------------------------===//
// Allocation counting hook
//===----------------------------------------------------------------------===//

// Each block carries its requested size in a header, so a delete knows
// what it releases: heldBytes() is the bytes requested and not yet
// released, whatever the allocator rounds them up to.
static std::atomic<uint64_t> GAllocs{0};
static std::atomic<uint64_t> GHeld{0};
static constexpr std::size_t SizeHeader = alignof(std::max_align_t);

void *operator new(std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (auto *P = static_cast<char *>(std::malloc(SizeHeader + N))) {
    std::memcpy(P, &N, sizeof N);
    GHeld.fetch_add(N, std::memory_order_relaxed);
    return P + SizeHeader;
  }
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
// Out of line, so GCC does not pair an inlined free() with the operator
// new above and warn (-Wmismatched-new-delete) in every test body.
[[gnu::noinline]] void operator delete(void *P) noexcept {
  if (!P)
    return;
  char *Block = static_cast<char *>(P) - SizeHeader;
  std::size_t N = 0;
  std::memcpy(&N, Block, sizeof N);
  GHeld.fetch_sub(N, std::memory_order_relaxed);
  std::free(Block);
}
[[gnu::noinline]] void operator delete[](void *P) noexcept {
  ::operator delete(P);
}
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  ::operator delete(P);
}
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  ::operator delete(P);
}

static uint64_t allocCount() {
  return GAllocs.load(std::memory_order_relaxed);
}

static uint64_t heldBytes() { return GHeld.load(std::memory_order_relaxed); }

//===----------------------------------------------------------------------===//
// SeqRing
//===----------------------------------------------------------------------===//

TEST(SeqRing, InsertFindErase) {
  stream::SeqRing<int> R;
  EXPECT_TRUE(R.empty());
  R.insert(5, 50);
  R.insert(7, 70);
  R.insert(6, 60);
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.firstSeq(), 5u);
  EXPECT_EQ(R.lastSeq(), 7u);
  EXPECT_TRUE(R.contains(6));
  EXPECT_FALSE(R.contains(4));
  EXPECT_FALSE(R.contains(8));
  EXPECT_EQ(R.at(5), 50);
  EXPECT_EQ(*R.find(7), 70);
  EXPECT_EQ(R.find(8), nullptr);
  R.erase(5);
  EXPECT_EQ(R.firstSeq(), 6u);
  R.erase(7);
  EXPECT_EQ(R.lastSeq(), 6u);
  R.erase(6);
  EXPECT_TRUE(R.empty());
}

TEST(SeqRing, WrapsPastCapacityManyTimes) {
  // A long-lived window marches through far more seqs than the slot array
  // holds; every seq must index cleanly through the mask.
  stream::SeqRing<uint64_t> R;
  uint64_t Next = 1, Acked = 1;
  for (int Round = 0; Round != 1000; ++Round) {
    // Keep up to 8 in flight, then retire the oldest (prefix erase, the
    // retransmission-window pattern).
    while (Next - Acked < 8)
      R.insert(Next, Next * 3), ++Next;
    EXPECT_EQ(R.firstSeq(), Acked);
    EXPECT_EQ(R.at(Acked), Acked * 3);
    R.erase(Acked);
    ++Acked;
  }
  EXPECT_EQ(R.size(), 7u);
}

TEST(SeqRing, SparseRangeAndAscendingIteration) {
  // The ahead-of-order pattern: gaps inside [Lo, Hi).
  stream::SeqRing<int> R;
  R.insert(10, 1);
  R.insert(14, 5);
  R.insert(12, 3);
  EXPECT_EQ(R.firstSeq(), 10u);
  EXPECT_EQ(R.lastSeq(), 14u);
  EXPECT_FALSE(R.contains(11));
  EXPECT_FALSE(R.contains(13));
  std::vector<uint64_t> Seen;
  R.forEach([&](uint64_t S, const int &) { Seen.push_back(S); });
  EXPECT_EQ(Seen, (std::vector<uint64_t>{10, 12, 14}));
  // Erasing an endpoint tightens past the gap.
  R.erase(14);
  EXPECT_EQ(R.lastSeq(), 12u);
  R.erase(10);
  EXPECT_EQ(R.firstSeq(), 12u);
}

TEST(SeqRing, EraseThenReinsertSameSeq) {
  // A slot must be fully reusable after erase: stale "present" state or a
  // stale value resurrecting would corrupt the window.
  stream::SeqRing<std::vector<int>> R;
  R.insert(3, {1, 2, 3});
  R.erase(3);
  EXPECT_FALSE(R.contains(3));
  R.insert(3, {9});
  EXPECT_EQ(R.at(3), (std::vector<int>{9}));
  // And erase() must reset the slot to T{} so owned buffers free eagerly.
  R.erase(3);
  R.insert(3 + 16, {7}); // The same slot: 16 is a multiple of the capacity.
  EXPECT_EQ(R.at(3 + 16), (std::vector<int>{7}));
}

TEST(SeqRing, GrowthPreservesSparseEntries) {
  stream::SeqRing<int> R;
  // Grows from its first 2 slots to 4, 8 and 64, with gaps inside the
  // span each time; the last entry lands out of order.
  R.insert(100, 0);
  R.insert(103, 3);
  R.insert(107, 7);
  R.insert(140, 40);
  R.insert(121, 21);
  EXPECT_EQ(R.size(), 5u);
  EXPECT_EQ(R.at(100), 0);
  EXPECT_EQ(R.at(103), 3);
  EXPECT_EQ(R.at(107), 7);
  EXPECT_EQ(R.at(121), 21);
  EXPECT_EQ(R.at(140), 40);
  EXPECT_FALSE(R.contains(101));
  EXPECT_FALSE(R.contains(139));
  std::vector<uint64_t> Seen;
  R.forEach([&](uint64_t S, const int &) { Seen.push_back(S); });
  EXPECT_EQ(Seen, (std::vector<uint64_t>{100, 103, 107, 121, 140}));
}

TEST(SeqRing, MarchesThousandSeqsThroughTwoSlots) {
  // An RPC stream's pattern: the next call issues before the last one
  // retires, so at most two seqs are present. The first insert allocates
  // the ring's 2 slots (a uint64_t and its present flag: 16 B each), and
  // they serve every later seq.
  stream::SeqRing<uint64_t> R;
  uint64_t A0 = allocCount();
  uint64_t H0 = heldBytes();
  R.insert(1, 3);
  for (uint64_t S = 2; S <= 1000; ++S) {
    R.insert(S, S * 3);
    R.erase(S - 1);
    ASSERT_EQ(R.firstSeq(), S);
    ASSERT_EQ(R.at(S), S * 3);
  }
  EXPECT_EQ(R.size(), 1u);
  EXPECT_EQ(allocCount() - A0, 1u) << "two slots hold a window of two";
  EXPECT_EQ(heldBytes() - H0, 2 * 16u);
}

TEST(SeqRing, InsertFarBelowLoGrowsFromTwoSlots) {
  // Reply batches overtake each other: a seq far below everything present
  // arrives while the ring still has its first 2 slots, both full.
  stream::SeqRing<int> R;
  R.insert(1000, 0);
  R.insert(1001, 1);
  R.insert(970, -30);
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.firstSeq(), 970u);
  EXPECT_EQ(R.lastSeq(), 1001u);
  EXPECT_EQ(R.at(970), -30);
  EXPECT_EQ(R.at(1000), 0);
  EXPECT_EQ(R.at(1001), 1);
  EXPECT_FALSE(R.contains(971));
  EXPECT_FALSE(R.contains(999));
  std::vector<uint64_t> Seen;
  R.forEach([&](uint64_t S, const int &) { Seen.push_back(S); });
  EXPECT_EQ(Seen, (std::vector<uint64_t>{970, 1000, 1001}));
  // One growth spans the 32 seqs: filling the gap allocates nothing.
  uint64_t Before = allocCount();
  R.insert(985, 15);
  EXPECT_EQ(allocCount(), Before);
  EXPECT_EQ(R.at(985), 15);
}

TEST(SeqRing, ClearKeepsCapacityWarm) {
  stream::SeqRing<int> R;
  for (uint64_t S = 1; S <= 12; ++S)
    R.insert(S, 1);
  R.clear();
  EXPECT_TRUE(R.empty());
  uint64_t Before = allocCount();
  for (uint64_t S = 1; S <= 12; ++S)
    R.insert(S, 2);
  EXPECT_EQ(allocCount(), Before) << "clear() must retain the slot array";
  EXPECT_EQ(R.at(7), 2);
  // Also the first 2-slot array.
  stream::SeqRing<int> Small;
  Small.insert(1, 1);
  Small.clear();
  Before = allocCount();
  Small.insert(7, 7);
  Small.insert(8, 8);
  EXPECT_EQ(allocCount(), Before) << "clear() must retain the 2-slot array";
  EXPECT_EQ(Small.at(8), 8);
}

//===----------------------------------------------------------------------===//
// Zero-copy frame sealing
//===----------------------------------------------------------------------===//

namespace {

stream::Message sampleCallBatch() {
  stream::CallBatchMsg M;
  M.Agent = 7;
  M.Group = 2;
  M.Inc = 3;
  M.AckReplyThrough = 41;
  M.FlushReplies = true;
  for (uint64_t S = 42; S != 46; ++S) {
    stream::CallReq C;
    C.S = S;
    C.Port = 9;
    C.DeadlineNs = 1234567;
    C.Args = wire::Bytes(100 + S, static_cast<uint8_t>(S));
    M.Calls.push_back(std::move(C));
  }
  return M;
}

stream::Message sampleReplyBatch() {
  stream::ReplyBatchMsg M;
  M.Agent = 7;
  M.Group = 2;
  M.Inc = 3;
  M.AckCallThrough = 45;
  M.CompletedThrough = 44;
  M.Broken = true;
  M.BreakReason = "handler crashed";
  for (uint64_t S = 43; S != 45; ++S) {
    stream::WireReply W;
    W.S = S;
    W.Status = stream::ReplyStatus::Exception;
    W.ExTag = 5;
    W.Payload = wire::Bytes(64, 0xEE);
    W.Reason = "why";
    M.Replies.push_back(std::move(W));
  }
  return M;
}

stream::Message sampleCancel() {
  stream::CancelMsg M;
  M.Agent = 7;
  M.Group = 2;
  M.Inc = 3;
  M.Seqs = {44, 45};
  return M;
}

} // namespace

TEST(ZeroCopySeal, ByteIdenticalToLegacyPipeline) {
  for (const stream::Message &M :
       {sampleCallBatch(), sampleReplyBatch(), sampleCancel()}) {
    wire::Bytes Legacy = wire::sealFrame(stream::encodeMessage(M));
    wire::Bytes Framed = stream::encodeFramedMessage(M);
    EXPECT_EQ(Framed, Legacy);
    // And the result round-trips through the verifying receive path.
    auto Payload = wire::openFrame(Framed);
    ASSERT_TRUE(Payload.has_value());
    auto Decoded = stream::decodeMessage(*Payload);
    ASSERT_TRUE(Decoded.has_value());
    EXPECT_TRUE(*Decoded == M);
  }
}

TEST(ZeroCopySeal, ExactlyOneAllocationPerSealedMessage) {
  // The exact-size reserve must keep a framed encode to a single buffer
  // allocation. This pins each message codec's size() to its encode():
  // any drift shows up here as a reallocation.
  for (const stream::Message &M :
       {sampleCallBatch(), sampleReplyBatch(), sampleCancel()}) {
    uint64_t Before = allocCount();
    wire::Bytes Framed = stream::encodeFramedMessage(M);
    uint64_t After = allocCount();
    EXPECT_EQ(After - Before, 1u);
    EXPECT_GT(Framed.size(), wire::FrameHeaderBytes);
  }
}

TEST(ZeroCopySeal, CallBatchSealsStraightFromTheWindow) {
  // The send path encodes a batch out of the retransmission window, with
  // no CallBatchMsg in between: one allocation (the frame), the same bytes
  // as sealing the equivalent built message.
  stream::SeqRing<stream::CallReq> Window;
  stream::CallBatchMsg Built;
  static_cast<stream::CallBatchHeader &>(Built) =
      std::get<stream::CallBatchMsg>(sampleCallBatch());
  for (uint64_t S = 40; S != 50; ++S) {
    stream::CallReq C;
    C.S = S;
    C.Port = 9;
    C.FlushReply = S % 2 == 0;
    C.DeadlineNs = 1000 * S;
    C.Args = wire::Bytes(20 + S, static_cast<uint8_t>(S));
    if (S >= 42 && S <= 47)
      Built.Calls.push_back(C);
    Window.insert(S, std::move(C));
  }
  uint64_t Before = allocCount();
  wire::Bytes Framed = stream::encodeFramedCallBatch(Built, Window, 42, 47);
  EXPECT_EQ(allocCount() - Before, 1u);
  EXPECT_EQ(Framed, stream::encodeFramedMessage(Built));
  // An empty range is a pure ack/probe.
  stream::CallBatchMsg Ack;
  static_cast<stream::CallBatchHeader &>(Ack) = Built;
  EXPECT_EQ(stream::encodeFramedCallBatch(Built, Window, 1, 0),
            stream::encodeFramedMessage(Ack));
}

TEST(ZeroCopySeal, ReplyBatchSealsStraightFromTheUnackedRing) {
  // Likewise for replies: a delta batch carries the unacked replies above
  // a seq, read in place from a sparse ring (sends leave gaps).
  stream::SeqRing<stream::WireReply> Unacked;
  stream::ReplyBatchMsg Built;
  static_cast<stream::ReplyBatchHeader &>(Built) =
      std::get<stream::ReplyBatchMsg>(sampleReplyBatch());
  for (uint64_t S = 10; S != 22; ++S) {
    if (S % 3 == 0)
      continue; // A send that completed normally: no explicit reply.
    stream::WireReply W;
    W.S = S;
    W.Status = S % 2 ? stream::ReplyStatus::Normal
                     : stream::ReplyStatus::Unavailable;
    W.Payload = wire::Bytes(S, 0x5A);
    W.Reason = S % 2 ? "" : "a reason too long for the small-string buffer";
    if (S > 14)
      Built.Replies.push_back(W);
    Unacked.insert(S, std::move(W));
  }
  uint64_t Before = allocCount();
  wire::Bytes Framed = stream::encodeFramedReplyBatch(Built, Unacked, 14);
  EXPECT_EQ(allocCount() - Before, 1u);
  EXPECT_EQ(Framed, stream::encodeFramedMessage(Built));
}

TEST(ZeroCopySeal, CopiesZeroPayloadBytes) {
  uint64_t CopiedBefore = wire::frameStats().PayloadBytesCopied;
  uint64_t InPlaceBefore = wire::frameStats().FramesSealedInPlace;
  (void)stream::encodeFramedMessage(sampleCallBatch());
  EXPECT_EQ(wire::frameStats().PayloadBytesCopied, CopiedBefore);
  EXPECT_EQ(wire::frameStats().FramesSealedInPlace, InPlaceBefore + 1);
}

//===----------------------------------------------------------------------===//
// Promise slab
//===----------------------------------------------------------------------===//

TEST(PromiseSlab, SteadyStateChurnAllocatesNothing) {
  sim::Simulation Sim;
  // Warm one slab's worth of states.
  for (int I = 0; I != 80; ++I) {
    auto [P, R] = core::makePromise<uint64_t>(Sim);
    R.fulfill(core::Outcome<uint64_t>(uint64_t(I)));
    EXPECT_TRUE(P.ready());
  }
  // Steady state: every create/fulfill/drop cycle recycles a slab slot.
  uint64_t Before = allocCount();
  for (int I = 0; I != 1000; ++I) {
    auto [P, R] = core::makePromise<uint64_t>(Sim);
    R.fulfill(core::Outcome<uint64_t>(uint64_t(I)));
    EXPECT_EQ(P.claim().value(), uint64_t(I));
  }
  EXPECT_EQ(allocCount(), Before)
      << "promise churn must recycle slab slots, not hit the heap";
}

TEST(PromiseSlab, CopiesShareStateAndOutliveResolver) {
  sim::Simulation Sim;
  auto [P, R] = core::makePromise<int>(Sim);
  core::Promise<int> P2 = P;       // Copy: shared state.
  core::Promise<int> P3 = std::move(P);
  EXPECT_FALSE(P.valid()); // NOLINT: moved-from promises are invalid.
  {
    core::Resolver<int> R2 = R; // Resolver copies share too.
    R2.fulfill(core::Outcome<int>(17));
  }
  EXPECT_TRUE(P2.ready());
  EXPECT_TRUE(P3.ready());
  EXPECT_EQ(P2.claim().value(), 17);
  EXPECT_EQ(P3.claim().value(), 17);
}

TEST(PromiseSlab, MakeReadyHasNoWaitQueue) {
  auto P = core::Promise<int>::makeReady(core::Outcome<int>(5));
  EXPECT_TRUE(P.ready());
  EXPECT_EQ(P.claim().value(), 5);
}

//===----------------------------------------------------------------------===//
// Timed-event heap
//===----------------------------------------------------------------------===//

TEST(EventHeap, CancelPreventsExecutionAndStaleIdsMiss) {
  sim::Simulation Sim;
  int Fired = 0;
  uint64_t A = Sim.schedule(100, [&] { ++Fired; });
  uint64_t B = Sim.schedule(200, [&] { Fired += 10; });
  Sim.cancel(A);
  Sim.cancel(A); // Double cancel: no-op.
  Sim.run();
  EXPECT_EQ(Fired, 10);
  // B already ran; its id is stale now. Cancelling it must be a no-op
  // even though its pooled slot has been recycled.
  Sim.cancel(B);
  int After = 0;
  uint64_t C = Sim.schedule(50, [&] { ++After; });
  Sim.cancel(B); // Still stale, possibly aliasing C's slot — must miss.
  Sim.run();
  EXPECT_EQ(After, 1) << "stale cancel must not hit a recycled slot";
  (void)C;
}

TEST(EventHeap, DispatchOrderIsTimeThenScheduleOrder) {
  sim::Simulation Sim;
  std::vector<int> Order;
  Sim.schedule(100, [&] { Order.push_back(2); });
  Sim.schedule(50, [&] { Order.push_back(1); });
  Sim.schedule(100, [&] { Order.push_back(3); }); // Same time: FIFO.
  Sim.schedule(150, [&] { Order.push_back(4); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventHeap, CancelledEventDoesNotAdvanceClock) {
  sim::Simulation Sim;
  uint64_t Late = Sim.schedule(1000000, [] {});
  Sim.schedule(10, [] {});
  Sim.cancel(Late);
  Sim.run();
  EXPECT_EQ(Sim.now(), 10u)
      << "a tombstoned event must be dropped without advancing time";
}

TEST(EventHeap, SteadyStateSchedulingAllocatesOnlyTheClosure) {
  sim::Simulation Sim;
  // Warm the heap and pool past the measured high-water mark of
  // outstanding events.
  for (int I = 0; I != 256; ++I)
    Sim.schedule(I, [] {});
  Sim.run();
  uint64_t Before = allocCount();
  for (int I = 0; I != 100; ++I)
    Sim.schedule(I, [] {}); // Captureless.
  // The closure is stored inline in the pooled event record: a capture of
  // InlineFunctionBytes, twice the sleep()/waitFor() timer's, allocates
  // nothing either.
  std::array<char, InlineFunctionBytes - sizeof(int *)> Pad{};
  int Fired = 0;
  for (int I = 0; I != 100; ++I)
    Sim.schedule(I, [&Fired, Pad] { Fired += 1 + Pad[0]; });
  uint64_t Armed = allocCount();
  EXPECT_EQ(Armed, Before)
      << "arming a timer must not allocate once heap and pool are warm";
  Sim.run();
  EXPECT_EQ(allocCount(), Armed);
  EXPECT_EQ(Fired, 100);
}

//===----------------------------------------------------------------------===//
// InlineFunction storage
//===----------------------------------------------------------------------===//

TEST(InlineFunction, StoresSmallCapturesInlineAndLargeOnTheHeap) {
  // Up to InlineFunctionBytes: no allocation to build, move, call or
  // destroy — including a shared_ptr capture, which std::function would
  // put on the heap because it is not trivially copyable.
  auto Shared = std::make_shared<int>(1);
  std::array<char, InlineFunctionBytes - sizeof(Shared)> Fill{};
  uint64_t Before = allocCount();
  {
    InlineFunction<int()> F = [Shared, Fill] { return *Shared + Fill[0]; };
    InlineFunction<int()> G = std::move(F);
    EXPECT_EQ(G(), 1);
    std::function<int()> Std = [Shared] { return *Shared; };
    EXPECT_EQ(allocCount() - Before, 1u) << "std::function heap-stores it";
    EXPECT_EQ(Std(), 1);
  }
  // One byte more: one allocation at construction; moves pass the pointer.
  std::array<char, InlineFunctionBytes - sizeof(Shared) + 1> Over{};
  Before = allocCount();
  {
    InlineFunction<int()> F = [Shared, Over] { return *Shared + Over[0]; };
    EXPECT_EQ(allocCount() - Before, 1u);
    InlineFunction<int()> G = std::move(F);
    InlineFunction<int()> H;
    H = std::move(G);
    EXPECT_EQ(H(), 1);
    EXPECT_EQ(allocCount() - Before, 1u);
  }
  EXPECT_EQ(Shared.use_count(), 1);
}

//===----------------------------------------------------------------------===//
// End-to-end allocation budget
//===----------------------------------------------------------------------===//

namespace {

struct EchoWorld {
  sim::Simulation Sim;
  net::SimNetwork Net;
  std::unique_ptr<stream::StreamTransport> Client;
  std::unique_ptr<stream::StreamTransport> Server;
  stream::AgentId Agent = 0;

  EchoWorld() : Net(Sim) {
    net::NodeId C = Net.addNode("client");
    net::NodeId S = Net.addNode("server");
    Client = std::make_unique<stream::StreamTransport>(Net, C);
    Server = std::make_unique<stream::StreamTransport>(Net, S);
    Agent = Client->newAgent();
    Server->setCallSink([](stream::IncomingCall IC) {
      IC.Complete(stream::ReplyStatus::Normal, 0, stream::copyOf(IC.Args), {});
    });
  }

  core::Promise<uint64_t> issue(const wire::Bytes &Args) {
    auto [P, R] = core::makePromise<uint64_t>(Sim);
    auto Issue = Client->issueCall(
        Agent, Server->address(), 1, 1, wire::Bytes(Args), false, true,
        [R = R](const stream::ReplyOutcome &O) {
          R.fulfill(core::Outcome<uint64_t>(
              static_cast<uint64_t>(O.Payload.size())));
        });
    EXPECT_TRUE(Issue.Issued);
    return P;
  }
};

/// A client transport talking to a bare port that swallows everything,
/// so a test controls exactly which datagrams exist.
struct SinkWorld {
  sim::Simulation Sim;
  net::SimNetwork Net;
  net::NodeId ClientNode, ServerNode;
  net::Address Sink;
  uint64_t Delivered = 0;

  SinkWorld() : Net(Sim) {
    ClientNode = Net.addNode("client");
    ServerNode = Net.addNode("server");
    Sink = Net.bind(ServerNode, [this](net::Datagram D) {
      Delivered += D.Payload.size();
    });
  }
};

stream::CallBatchMsg callBatchOf(uint64_t First, int K, size_t ArgBytes) {
  stream::CallBatchMsg M;
  M.Agent = 1;
  M.Group = 1;
  for (int I = 0; I != K; ++I) {
    stream::CallReq C;
    C.S = First + I;
    C.Port = 1;
    C.Args = wire::Bytes(ArgBytes, static_cast<uint8_t>(I));
    M.Calls.push_back(std::move(C));
  }
  return M;
}

} // namespace

TEST(HotPathBudget, NetworkSendDeliverAllocatesOnlyThePayload) {
  // In-flight datagrams live in a pooled slab and the two scheduled
  // closures per datagram capture only {network, slot}: with the pools
  // warm, the payload buffer the caller hands in is the only allocation.
  SinkWorld W;
  net::Address Src = W.Net.bind(W.ClientNode, [](net::Datagram) {});
  for (int I = 0; I != 128; ++I) // Warm the event heap, pool and slab.
    W.Net.send(Src, W.Sink, wire::Bytes(32, 1));
  W.Sim.run();
  W.Delivered = 0;
  uint64_t Before = allocCount();
  constexpr int N = 100;
  for (int I = 0; I != N; ++I)
    W.Net.send(Src, W.Sink, wire::Bytes(32, 1));
  W.Sim.run();
  EXPECT_EQ(allocCount() - Before, uint64_t(N))
      << "a datagram may allocate only its own payload";
  EXPECT_EQ(W.Delivered, 32u * N);
}

TEST(HotPathBudget, ArrivingFramesAllocateOnlyDecodedBuffers) {
  // The receive path checks the frame in place and decodes it in place
  // into reused batch storage: no payload copy, no batch vector, no
  // network closure. A call batch whose calls carry argument bytes moves
  // its datagram into one shared frame, which the calls' argument slices
  // hold; a reply batch is read where it lies.
  SinkWorld W;
  stream::StreamTransport Server(W.Net, W.ServerNode);
  net::Address Src = W.Net.bind(W.ClientNode, [](net::Datagram) {});
  constexpr int K = 4;

  // Calls: with no call sink installed they park in the receive window
  // (nothing is delivered, so nothing is acked or replied to). The warm-up
  // parks seqs 1..K and 2K+1, so the window already spans the seqs the
  // measured batch parks and does not grow while it is counted.
  W.Net.send(Src, Server.address(),
             stream::encodeFramedMessage(callBatchOf(1, K, 100)));
  W.Net.send(Src, Server.address(),
             stream::encodeFramedMessage(callBatchOf(2 * K + 1, 1, 100)));
  W.Sim.run(); // Warm: creates the receiver stream and its windows.
  wire::Bytes Calls = stream::encodeFramedMessage(callBatchOf(1 + K, K, 100));
  uint64_t Before = allocCount();
  W.Net.send(Src, Server.address(), std::move(Calls));
  W.Sim.run();
  EXPECT_EQ(allocCount() - Before, 1u) << "the shared frame, for all K calls";

  // Replies: a batch for a stream this transport never opened is decoded,
  // then ignored. Each reply carries a payload and a heap-sized reason.
  stream::ReplyBatchMsg M;
  M.Agent = 9;
  M.Group = 1;
  for (int I = 0; I != K; ++I) {
    stream::WireReply R;
    R.S = 1 + I;
    R.Status = stream::ReplyStatus::Failure;
    R.Payload = wire::Bytes(50, 0xEE);
    R.Reason = "a reason too long for the small-string buffer";
    M.Replies.push_back(std::move(R));
  }
  W.Net.send(Src, Server.address(), stream::encodeFramedMessage(M));
  W.Sim.run(); // Warm the reply-batch storage.
  wire::Bytes Replies = stream::encodeFramedMessage(M);
  Before = allocCount();
  W.Net.send(Src, Server.address(), std::move(Replies));
  W.Sim.run();
  EXPECT_EQ(allocCount() - Before, 0u)
      << "payloads and reasons are read from the frame";
  EXPECT_EQ(Server.counters().MalformedDropped, 0u);
  EXPECT_EQ(Server.counters().FramesCorruptDropped, 0u);
}

TEST(HotPathBudget, FlushedCallBatchAllocatesOnlyItsFrame) {
  // Transmitting k buffered calls seals them straight out of the window:
  // one frame allocation, no per-call copy, no network closure.
  SinkWorld W;
  stream::StreamConfig Cfg;
  Cfg.MaxBatchCalls = 64; // Keep the calls buffered until the flush.
  stream::StreamTransport Client(W.Net, W.ClientNode, Cfg);
  stream::AgentId Agent = Client.newAgent();
  auto IssueK = [&](int K) {
    for (int I = 0; I != K; ++I)
      ASSERT_TRUE(Client
                      .issueCall(Agent, W.Sink, 1, 1, wire::Bytes(64, 7),
                                 /*NoReply=*/false, /*IsRpc=*/false,
                                 [](const stream::ReplyOutcome &) {})
                      .Issued);
  };
  // Warm the event heap and pool and the in-flight slab.
  net::Address Src = W.Net.bind(W.ClientNode, [](net::Datagram) {});
  for (int I = 0; I != 16; ++I)
    W.Net.send(Src, W.Sink, wire::Bytes(8, 1));
  W.Sim.run();
  IssueK(8);
  Client.flush(Agent, W.Sink, 1);
  IssueK(8);
  uint64_t Before = allocCount();
  Client.flush(Agent, W.Sink, 1);
  EXPECT_EQ(allocCount() - Before, 1u) << "the sealed frame only";
  Client.shutdown(/*Settle=*/false);
}

TEST(HotPathBudget, RpcRoundTripStaysUnderAllocationCeiling) {
  // Machine-independent twin of bench_hotpath's allocs/call metric. An
  // RPC round trip measures exactly 7 allocations: the caller's argument
  // copy, the shared frame that holds the call's arguments, the echo
  // sink's copy of them into its reply, and one frame per datagram. (The
  // echo sink completes inside delivery, so the reply also rides the
  // flush-requested recovery batch and draws a re-ack: four datagrams.)
  // Both reply batches are read in place. The reply callback is stored
  // inline in the sender's slot, and the server completes through a
  // direct transport call. The ceiling leaves one allocation of headroom
  // for stdlib variation; a per-datagram copy or closure creeping back
  // fails it.
  EchoWorld W;
  wire::Bytes Args(64, 0xAB);
  double PerCall = 0;
  uint64_t SealCopied = 0;
  W.Sim.spawn("driver", [&] {
    for (int I = 0; I != 200; ++I) // Warm slabs, rings, pools.
      W.issue(Args).claim();
    uint64_t A0 = allocCount();
    uint64_t C0 = wire::frameStats().PayloadBytesCopied;
    constexpr int N = 500;
    for (int I = 0; I != N; ++I)
      W.issue(Args).claim();
    PerCall = static_cast<double>(allocCount() - A0) / N;
    SealCopied = wire::frameStats().PayloadBytesCopied - C0;
  });
  W.Sim.run();
  EXPECT_GT(PerCall, 0.0);
  EXPECT_LE(PerCall, 8.0) << "RPC hot path allocates more per call";
  EXPECT_EQ(SealCopied, 0u) << "send path must seal frames in place";
}

TEST(HotPathBudget, TypedStreamCallAllocations) {
  // The path users write: RemoteHandler::streamCall through a client
  // Guardian to a KvStore echo, 64 calls in flight, each claimed in order.
  // At steady state a call makes exactly 4 allocations plus 1/4 of one:
  //  * data: the encoded arguments, the handler's string argument, the
  //    encoded result and the client's string result (4);
  //  * one call-batch and one reply-batch frame per 16 calls (0.125);
  //  * one shared call frame per 16-call batch: the call batch's datagram
  //    buffer, moved under a reference count that the calls' argument
  //    slices hold (0.0625);
  //  * one runner process per 16-call batch, its control block included
  //    and its body inline: the stream's runner takes the batch's calls in
  //    order and exits when the table drains (0.0625).
  // The server decodes each call's arguments from the shared frame and
  // the client each reply's payload from its reply frame; the live call
  // sits in its stream's call ring. The spawn's exec record and stack,
  // the reply callback, the completion, and the EncodeCpu sleep timer
  // allocate nothing.
  sim::Simulation Sim;
  Sim.metrics().setEnabled(false);
  net::SimNetwork Net(Sim);
  runtime::Guardian Server(Net, Net.addNode("server"), "server");
  runtime::Guardian Client(Net, Net.addNode("client"), "client");
  apps::KvStore Kv =
      apps::installKvStore(Server, apps::KvStoreConfig{.ServiceTime = 0});
  auto Echo = runtime::bindHandler(Client, Client.newAgent(), Kv.Echo);
  const std::string Arg(64, 'e'); // Heap-sized, like a typical argument.
  constexpr size_t Window = 64;
  constexpr uint64_t Calls = 1024;
  uint64_t Allocs = 0;
  uint64_t Wrong = 0;
  Client.spawnProcess("caller", [&] {
    std::vector<core::Promise<std::string>> Ring(Window);
    uint64_t Next = 0;
    auto Run = [&](uint64_t N) {
      for (uint64_t I = 0; I != N; ++I, ++Next) {
        core::Promise<std::string> &P = Ring[Next % Window];
        if (P.valid() && P.claim().value() != Arg)
          ++Wrong;
        P = Echo.streamCall(Arg);
      }
    };
    Run(4 * Calls); // Warm slabs, rings, pools, stacks and exec records.
    uint64_t A0 = allocCount();
    Run(Calls);
    Allocs = allocCount() - A0;
    for (core::Promise<std::string> &P : Ring)
      if (P.claim().value() != Arg)
        ++Wrong;
  });
  Sim.run();
  EXPECT_EQ(Wrong, 0u);
  EXPECT_EQ(Allocs, 4 * Calls + Calls / 8 + Calls / 16 + Calls / 16)
      << static_cast<double>(Allocs) / Calls << " allocations per call";
}

TEST(HotPathBudget, QueuedCallsDecodeFromTheirFrameAfterDelivery) {
  // One batch brings four calls to a serial stream whose first call
  // blocks. The other three wait in the stream's call ring long after
  // onDatagram returned; their argument slices must keep the batch's frame
  // alive, so each decodes its own argument when its turn comes.
  sim::Simulation Sim;
  net::SimNetwork Net(Sim);
  runtime::Guardian Server(Net, Net.addNode("server"), "server");
  runtime::Guardian Client(Net, Net.addNode("client"), "client");
  std::vector<std::string> Seen;
  auto Ref = Server.addHandler<int32_t(std::string)>(
      "note", [&](std::string S) -> core::Outcome<int32_t> {
        if (Seen.empty())
          Sim.sleep(sim::msec(5)); // Blocks with the rest queued behind.
        Seen.push_back(S);
        return static_cast<int32_t>(S.size());
      });
  auto Note = runtime::bindHandler(Client, Client.newAgent(), Ref);
  std::vector<std::string> Args;
  for (char C : {'a', 'b', 'c', 'd'})
    Args.push_back(std::string(40 + (C - 'a'), C)); // Heap-sized.
  std::vector<int32_t> Got;
  Client.spawnProcess("caller", [&] {
    std::vector<core::Promise<int32_t>> Ps;
    for (const std::string &A : Args)
      Ps.push_back(Note.streamCall(A));
    Note.flush(); // One batch.
    for (core::Promise<int32_t> &P : Ps)
      Got.push_back(P.claim().value());
  });
  Sim.run();
  EXPECT_EQ(Seen, Args);
  EXPECT_EQ(Got, (std::vector<int32_t>{40, 41, 42, 43}));
  EXPECT_EQ(Server.transport().counters().CallBatchesSent, 0u);
  EXPECT_EQ(Client.transport().counters().CallBatchesSent, 1u);
}

TEST(HotPathBudget, QuiescentPipelineHoldsNoFrame) {
  // Every call frame is released with the last call that holds a slice of
  // it. This server keeps each delivered call past its datagram, as a
  // guardian keeps its queued calls, and completes the held calls 50 us
  // later; after a 64-deep pipeline drains, the bytes it leaves held are
  // the warm run's, to the byte. (A guardian's finished runners stay held
  // until its next sweep, so a bare transport makes the comparison exact.)
  EchoWorld W;
  std::vector<stream::IncomingCall> Held;
  W.Server->setCallSink([&](stream::IncomingCall IC) {
    if (Held.empty())
      W.Sim.schedule(sim::usec(50), [&] {
        for (stream::IncomingCall &C : Held)
          C.Complete(stream::ReplyStatus::Normal, 0, stream::copyOf(C.Args),
                     {});
        Held.clear();
      });
    Held.push_back(std::move(IC));
  });
  const wire::Bytes Args(64, 0xAB);
  uint64_t Wrong = 0;
  auto Pipeline = [&] {
    W.Sim.spawn("caller", [&] {
      std::vector<core::Promise<uint64_t>> Ring(64);
      auto Claim = [&](core::Promise<uint64_t> &P) {
        if (P.valid() && P.claim().value() != Args.size())
          ++Wrong;
      };
      for (uint64_t I = 0; I != 1024; ++I) {
        core::Promise<uint64_t> &P = Ring[I % Ring.size()];
        Claim(P);
        auto [Next, R] = core::makePromise<uint64_t>(W.Sim);
        P = Next;
        W.Client->issueCall(W.Agent, W.Server->address(), 1, 1,
                            wire::Bytes(Args), false, /*IsRpc=*/false,
                            [R = R](const stream::ReplyOutcome &O) {
                              R.fulfill(core::Outcome<uint64_t>(
                                  static_cast<uint64_t>(O.Payload.size())));
                            });
      }
      for (core::Promise<uint64_t> &P : Ring)
        Claim(P);
    });
    W.Sim.run();
    return heldBytes();
  };
  Pipeline(); // Warm slabs, rings, pools and the held-call vector.
  uint64_t Warm = Pipeline();
  EXPECT_EQ(Pipeline(), Warm);
  EXPECT_EQ(Wrong, 0u);
}

TEST(HotPathBudget, FreshStreamRpcAllocations) {
  // What opening a stream costs. A Guardian→KvStore echo RPC with a
  // 64-byte argument, run alone from a quiet system, makes 9 allocations
  // on a warm stream and 17 on a fresh agent's stream. The 8 more are the
  // new stream's records, which live as long as the two transports:
  //  * the first growth of six rings to 2 slots: the sender's retransmit
  //    window and reply slots, the receiver's ahead-of-order calls,
  //    out-of-order completions and unacknowledged replies, and the
  //    guardian's call ring (112, 160, 128, 176, 160 and 256 B);
  //  * the hash nodes of the client's `Senders` (552 B) and the server's
  //    `Receivers` (416 B).
  // The sender's pending-reply ring stays unallocated: an in-order reply
  // is consumed from its frame, and only one that waits behind a gap is
  // parked there. Those 1,960 B are what the fresh stream leaves held once
  // its reply is acknowledged, beyond what the warm call leaves (its
  // finished runner, until the server next sweeps finished processes).
  // The rest grows in steps that this fourth stream does not reach: the
  // server's tag vector and the two tables' bucket arrays when they
  // double, and the guardian's call tables (56 B a stream) by a 9-table
  // block.
  sim::Simulation Sim;
  Sim.metrics().setEnabled(false);
  net::SimNetwork Net(Sim);
  runtime::Guardian Server(Net, Net.addNode("server"), "server");
  runtime::Guardian Client(Net, Net.addNode("client"), "client");
  apps::KvStore Kv =
      apps::installKvStore(Server, apps::KvStoreConfig{.ServiceTime = 0});
  auto Warm = runtime::bindHandler(Client, Client.newAgent(), Kv.Echo);
  auto Fresh = runtime::bindHandler(Client, Client.newAgent(), Kv.Echo);
  const std::string Arg(64, 'e');
  // Warm slabs, pools, stacks and heaps, also for a call that opens a
  // stream: it holds more datagrams and events in flight at once.
  Client.spawnProcess("warm-up", [&] {
    for (int I = 0; I != 200; ++I)
      Warm.call(Arg);
    for (int I = 0; I != 2; ++I)
      runtime::bindHandler(Client, Client.newAgent(), Kv.Echo).call(Arg);
    for (int I = 0; I != 20; ++I)
      Warm.call(Arg);
  });
  Sim.run();
  // One RPC in a caller process of its own, run to quiescence so every
  // delayed ack has gone out: its allocations, and the bytes it leaves.
  struct Cost {
    uint64_t Allocs = 0;
    uint64_t Held = 0;
    bool Echoed = false;
  };
  auto CallAlone = [&](auto &Handler) {
    Cost C;
    uint64_t H0 = heldBytes();
    Sim.spawn("caller", [&] {
      uint64_t A0 = allocCount();
      auto O = Handler.call(Arg);
      C.Allocs = allocCount() - A0;
      C.Echoed = O.value() == Arg;
    });
    Sim.run();
    C.Held = heldBytes() - H0;
    return C;
  };
  Cost OnWarm = CallAlone(Warm);
  Cost OnFresh = CallAlone(Fresh);
  EXPECT_TRUE(OnWarm.Echoed);
  EXPECT_TRUE(OnFresh.Echoed);
  EXPECT_EQ(OnWarm.Allocs, 9u);
  EXPECT_EQ(OnFresh.Allocs, 17u);
  EXPECT_EQ(OnFresh.Held - OnWarm.Held, 1960u)
      << OnWarm.Held << " B held after the warm call, " << OnFresh.Held
      << " B after the fresh one";
}

TEST(HotPathBudget, RecordingASeenDetailAllocatesNothing) {
  // An enabled registry stores an event whose detail it has seen before
  // as one copy into its buffer: the detail is interned, not copied.
  MetricsRegistry R;
  R.setEnabled(true);
  const std::string Reason = core::reasons::CannotCommunicate;
  const TraceEvent E{1000, EventKind::SenderBreak, 1, 42, 1, 0, Reason};
  // The first record interns the detail and allocates the buffer's first
  // block, which has room for the next hundred.
  R.emit(E);
  uint64_t A0 = allocCount();
  for (int I = 0; I != 100; ++I)
    R.emit(E);
  EXPECT_EQ(allocCount() - A0, 0u);
  EXPECT_EQ(R.eventsRecorded(), 101u);
  EXPECT_EQ(R.events().back().Detail, "cannot communicate");
}
