//===- StreamTransport.cpp - Call-stream layer ----------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/stream/StreamTransport.h"

#include "promises/stream/SeqRing.h"

#include "promises/core/Exceptions.h"
#include "promises/sim/Sync.h"
#include "promises/support/Check.h"
#include "promises/support/StrUtil.h"
#include "promises/wire/Frame.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace promises;
using namespace promises::stream;
using sim::Time;

//===----------------------------------------------------------------------===//
// Message framing
//===----------------------------------------------------------------------===//

namespace {
constexpr uint8_t KindCallBatch = 1;
constexpr uint8_t KindReplyBatch = 2;
constexpr uint8_t KindCancel = 3;

// Exact encoded sizes, kept in lock-step with the Codec<> definitions in
// Messages.h (fixed-width scalars + u32 length prefixes). The size feeds
// the encoder's reserve() so a framed encode is exactly one allocation —
// the one-alloc regression test in hotpath_test.cpp enforces that these
// never drift from the codecs.
size_t encodedSizeOf(const CallReq &C) {
  return 8 + 4 + 1 + 1 + 8 + (4 + C.Args.size());
}
size_t encodedSizeOf(const WireReply &R) {
  return 8 + 1 + 4 + (4 + R.Payload.size()) + (4 + R.Reason.size());
}

size_t messageSizeOf(const Message &M) {
  if (const auto *CB = std::get_if<CallBatchMsg>(&M)) {
    size_t N = 1 + 8 + 4 + 4 + 8 + 1 + 4;
    for (const CallReq &C : CB->Calls)
      N += encodedSizeOf(C);
    return N;
  }
  if (const auto *RB = std::get_if<ReplyBatchMsg>(&M)) {
    size_t N =
        1 + 8 + 4 + 4 + 8 + 8 + 1 + 1 + (4 + RB->BreakReason.size()) + 4;
    for (const WireReply &R : RB->Replies)
      N += encodedSizeOf(R);
    return N;
  }
  return 1 + 8 + 4 + 4 + 4 + 8 * std::get<CancelMsg>(M).Seqs.size();
}

void writeMessage(wire::Encoder &E, const Message &M) {
  if (const auto *CB = std::get_if<CallBatchMsg>(&M)) {
    E.writeU8(KindCallBatch);
    wire::Codec<CallBatchMsg>::encode(E, *CB);
  } else if (const auto *RB = std::get_if<ReplyBatchMsg>(&M)) {
    E.writeU8(KindReplyBatch);
    wire::Codec<ReplyBatchMsg>::encode(E, *RB);
  } else {
    E.writeU8(KindCancel);
    wire::Codec<CancelMsg>::encode(E, std::get<CancelMsg>(M));
  }
}
} // namespace

wire::Bytes promises::stream::encodeMessage(const Message &M) {
  wire::Encoder E;
  E.reserve(messageSizeOf(M));
  writeMessage(E, M);
  PROMISES_CHECK(!E.failed(), "stream messages must always encode");
  return E.take();
}

wire::Bytes promises::stream::encodeFramedMessage(const Message &M,
                                                  bool Checksum) {
  wire::Encoder E;
  wire::beginFrame(E, messageSizeOf(M));
  writeMessage(E, M);
  PROMISES_CHECK(!E.failed(), "stream messages must always encode");
  wire::Bytes Frame = wire::finishFrame(E, Checksum);
  PROMISES_CHECK(!E.failed(), "stream message exceeds the frame limit");
  return Frame;
}

std::optional<Message>
promises::stream::decodeMessage(const wire::Bytes &B) {
  wire::Decoder D(B);
  uint8_t Kind = D.readU8();
  Message M;
  if (Kind == KindCallBatch)
    M = wire::Codec<CallBatchMsg>::decode(D);
  else if (Kind == KindReplyBatch)
    M = wire::Codec<ReplyBatchMsg>::decode(D);
  else if (Kind == KindCancel)
    M = wire::Codec<CancelMsg>::decode(D);
  else
    return std::nullopt;
  if (D.failed() || !D.atEnd())
    return std::nullopt;
  return M;
}

//===----------------------------------------------------------------------===//
// Stream state
//===----------------------------------------------------------------------===//

struct StreamTransport::SenderStream {
  SenderStream(sim::Simulation &S, AgentId A, net::Address R, GroupId G)
      : Agent(A), Remote(R), Group(G),
        FulfillQ(std::make_unique<sim::WaitQueue>(S)), WindowMx(S),
        WindowCv(S) {}

  AgentId Agent;
  net::Address Remote;
  GroupId Group;
  Incarnation Inc = 1;

  Seq NextSeq = 1;             ///< The next issued call takes this seq.
  Seq TransmittedThrough = 0;  ///< Sent at least once through here.
  Seq AckedCallThrough = 0;    ///< Receiver delivered through here.
  Seq CompletedThroughMax = 0; ///< Receiver executed through here.
  Seq FulfilledThrough = 0;    ///< Outcomes handed to callbacks through
                               ///< here (always in order).
  Seq LastAckSent = 0;         ///< AckReplyThrough in our last batch.

  struct Slot {
    bool NoReply = false;
    bool IsRpc = false;
    sim::Time IssuedAt = 0; ///< For the call-latency histogram.
    ReplyCallback Cb;
  };
  /// Calls kept for retransmission: (AckedCallThrough, NextSeq).
  SeqRing<CallReq> Window;
  /// Callbacks awaiting outcomes: (FulfilledThrough, NextSeq).
  SeqRing<Slot> Slots;
  /// Explicit replies received but not yet consumable in order.
  SeqRing<WireReply> PendingReplies;
  size_t BufferedBytes = 0; ///< Untransmitted argument bytes.
  size_t WindowBytes = 0;   ///< Argument bytes retained in Window.

  bool Broken = false;
  bool BrokenIsFailure = false;
  std::string BreakReason;

  // Synch-window bookkeeping (reset by synch or by an RPC's reply).
  bool ExceptionSinceMark = false;
  bool BreakSinceMark = false;
  bool BreakSinceMarkIsFailure = false;
  std::string BreakSinceMarkReason;

  // Timers.
  bool FlushTimerArmed = false;
  uint64_t FlushTimer = 0;
  bool RetransTimerArmed = false;
  uint64_t RetransTimer = 0;
  bool AckTimerArmed = false;
  uint64_t AckTimer = 0;
  int Retries = 0;
  Seq LastProgressAcked = 0;
  Seq LastProgressFulfilled = 0;
  sim::Time CurrentRto = 0; ///< Backed-off retransmit timeout; 0 = base.

  std::unique_ptr<sim::WaitQueue> FulfillQ; ///< synch waiters.
  /// Processes currently blocked on this stream (synch, or a full
  /// in-flight window). A pinned stream must not be retired: the blocked
  /// frames hold references into it.
  int PinCount = 0;
  sim::SimMutex WindowMx;   ///< Guards the window-space condition.
  sim::SimCondVar WindowCv; ///< Signalled when window space frees.

  Seq untransmittedCount() const { return NextSeq - 1 - TransmittedThrough; }
  Seq outstanding() const { return NextSeq - 1 - FulfilledThrough; }
  void resetMark() {
    ExceptionSinceMark = false;
    BreakSinceMark = false;
    BreakSinceMarkIsFailure = false;
    BreakSinceMarkReason.clear();
  }
};

struct StreamTransport::ReceiverStream {
  uint64_t Tag = 0;
  net::Address SenderAddr;
  AgentId Agent = 0;
  GroupId Group = 0;
  Incarnation Inc = 1;

  Seq NextExpected = 1; ///< Next call seq to deliver to user code.
  SeqRing<CallReq> Future; ///< Received ahead of order.
  Seq CompletedThrough = 0;
  /// Calls executed beyond the contiguous prefix (only possible when the
  /// runtime opts a group into parallel execution); nullopt entries are
  /// normally-terminated sends with no explicit reply.
  SeqRing<std::optional<WireReply>> DoneAhead;
  SeqRing<WireReply> UnackedReplies;
  Seq FlushThrough = 0;     ///< Completions <= this flush immediately.
  Seq FlushWhenCompleted = 0; ///< RPC replies wanted as soon as the
                              ///< prefix reaches this seq.
  Seq LastSentCompleted = 0;
  Seq LastSentAck = 0;
  Seq LastBatchedReply = 0; ///< Highest reply ever included in a batch;
                            ///< normal batches send only newer ones.
  bool NeedAck = false; ///< Duplicate calls seen; re-ack soon.

  bool Broken = false;
  bool BrokenIsFailure = false;
  std::string BreakReason;

  /// Seqs cancelled by the sender. Undelivered seqs wait here until
  /// delivery order reaches them (then complete as cancelled without
  /// touching user code); already-delivered seqs are added after their
  /// cancel completion so a killed-but-critical-section call process
  /// cannot complete the call a second time when it finally unwinds.
  std::set<Seq> Cancelled;

  bool ReplyFlushTimerArmed = false;
  uint64_t ReplyFlushTimer = 0;
  bool AckTimerArmed = false;
  uint64_t AckTimer = 0;
};

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

StreamTransport::StreamTransport(net::Network &Net, net::NodeId Node,
                                 StreamConfig Cfg)
    : Net(Net), Sim(Net.simulation()), Node(Node),
      Reg(Sim.metrics()), Cfg(Cfg) {
  Addr = Net.bind(Node, [this](net::Datagram D) { onDatagram(std::move(D)); });
  Net.onCrash(Node, [this] { shutdown(); });
  // (node, port) identifies this transport even with several per node.
  MetricLabels L{{"node", Net.nodeName(Node)},
                 {"port", strprintf("%u", Addr.Port)}};
  Counters.CallsIssued = &Reg.counter("stream.calls_issued", L);
  Counters.CallBatchesSent = &Reg.counter("stream.call_batches_sent", L);
  Counters.AckBatchesSent = &Reg.counter("stream.ack_batches_sent", L);
  Counters.ReplyBatchesSent = &Reg.counter("stream.reply_batches_sent", L);
  Counters.CallsDelivered = &Reg.counter("stream.calls_delivered", L);
  Counters.DuplicateCallsDropped =
      &Reg.counter("stream.duplicate_calls_dropped", L);
  Counters.Retransmissions = &Reg.counter("stream.retransmissions", L);
  Counters.Probes = &Reg.counter("stream.probes", L);
  Counters.SenderBreaks = &Reg.counter("stream.sender_breaks", L);
  Counters.ReceiverBreaks = &Reg.counter("stream.receiver_breaks", L);
  Counters.Restarts = &Reg.counter("stream.restarts", L);
  Counters.CallsFulfilled = &Reg.counter("stream.calls_fulfilled", L);
  Counters.CallsBroken = &Reg.counter("stream.calls_broken", L);
  Counters.CallsBlocked = &Reg.counter("stream.calls_blocked", L);
  Counters.RetransmittedBytes =
      &Reg.counter("stream.retransmitted_bytes", L);
  Counters.CancelsSent = &Reg.counter("stream.cancels_sent", L);
  Counters.CallsCancelled = &Reg.counter("call.cancelled", L);
  Counters.BreakerFastFails = &Reg.counter("breaker.fast_fails", L);
  Counters.BreakerOpens = &Reg.counter("breaker.opened", L);
  Counters.BreakerCloses = &Reg.counter("breaker.closed", L);
  Counters.BreakerProbes = &Reg.counter("breaker.probes", L);
  Counters.FramesCorruptDropped =
      &Reg.counter("net.frames_corrupt_dropped", L);
  Counters.MalformedDropped = &Reg.counter("stream.malformed_dropped", L);
  Counters.FramesTrailingBytes =
      &Reg.counter("net.frames_trailing_bytes", L);
  Reg.gaugeProbe("breaker.state", [this] {
    return static_cast<double>(openBreakerCount());
  }, L);
  Counters.CallLatencyUs = &Reg.histogram("stream.call_latency_us", L);
  Counters.BatchOccupancy = &Reg.histogram("stream.batch_occupancy", L);
  Counters.ReplyOccupancy = &Reg.histogram("stream.reply_batch_occupancy", L);
  Counters.RetransmitBatch = &Reg.histogram("stream.retransmit_batch", L);
  Counters.WindowOccupancy = &Reg.histogram("stream.window_occupancy", L);
  Counters.BlockTimeUs = &Reg.histogram("stream.block_time_us", L);
  // Endpoint identity decorrelates the jitter streams of transports that
  // share a seed without sacrificing replay determinism.
  RetransRng.reseed(Cfg.RetransSeed ^
                    (static_cast<uint64_t>(Node) << 32) ^ Addr.Port);
}

StreamCounters StreamTransport::counters() const {
  return {Counters.CallsIssued->value(),
          Counters.CallBatchesSent->value(),
          Counters.AckBatchesSent->value(),
          Counters.ReplyBatchesSent->value(),
          Counters.CallsDelivered->value(),
          Counters.DuplicateCallsDropped->value(),
          Counters.Retransmissions->value(),
          Counters.Probes->value(),
          Counters.SenderBreaks->value(),
          Counters.ReceiverBreaks->value(),
          Counters.Restarts->value(),
          Counters.CallsFulfilled->value(),
          Counters.CallsBroken->value(),
          Counters.CallsBlocked->value(),
          Counters.RetransmittedBytes->value(),
          Counters.CancelsSent->value(),
          Counters.CallsCancelled->value(),
          Counters.BreakerFastFails->value(),
          Counters.BreakerOpens->value(),
          Counters.BreakerCloses->value(),
          Counters.BreakerProbes->value(),
          Counters.FramesCorruptDropped->value(),
          Counters.MalformedDropped->value(),
          Counters.FramesTrailingBytes->value()};
}

StreamTransport::~StreamTransport() {
  shutdown(/*Settle=*/false);
  // Freeze the breaker.state probe at its final value: the registry
  // outlives this transport, and a probe capturing `this` must not dangle.
  MetricLabels L{{"node", Net.nodeName(Node)},
                 {"port", strprintf("%u", Addr.Port)}};
  double Final = static_cast<double>(openBreakerCount());
  Reg.gaugeProbe("breaker.state", [Final] { return Final; }, L);
}

void StreamTransport::shutdown(bool Settle) {
  if (Dead)
    return;
  Dead = true;
  if (Net.isUp(Node))
    Net.unbind(Addr);
  // Wake order is scheduling-visible: blocked processes resume in notify
  // order. The pre-sharding node-global map iterated senders in
  // (agent, address, group) key order, so reproduce exactly that order
  // here — sharding is a representation change and must not perturb
  // schedules (the chaos trace-hash oracle holds us to it).
  std::vector<std::tuple<AgentId, net::Address, GroupId, SenderStream *>>
      Ordered;
  for (auto &[RemoteAddr, Shard] : SenderShards)
    for (auto &[SK, S] : Shard.Streams)
      Ordered.emplace_back(SK.first, RemoteAddr, SK.second, S.get());
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) {
              if (std::get<0>(A) != std::get<0>(B))
                return std::get<0>(A) < std::get<0>(B);
              if (!(std::get<1>(A) == std::get<1>(B)))
                return std::get<1>(A) < std::get<1>(B);
              return std::get<2>(A) < std::get<2>(B);
            });
  for (auto &[A, RemoteAddr, G, S] : Ordered) {
    (void)A;
    (void)RemoteAddr;
    (void)G;
    if (S->FlushTimerArmed)
      Sim.cancel(S->FlushTimer);
    if (S->RetransTimerArmed)
      Sim.cancel(S->RetransTimer);
    if (S->AckTimerArmed)
      Sim.cancel(S->AckTimer);
    S->FlushTimerArmed = S->RetransTimerArmed = S->AckTimerArmed = false;
    // No claim may wait on a dead transport: every outstanding call
    // settles now, in call order, and the next synch reports why.
    if (!S->Slots.empty()) {
      ReplyOutcome Down =
          ReplyOutcome::unavailable(core::reasons::TransportShutDown);
      S->BreakSinceMark = true;
      S->BreakSinceMarkIsFailure = false;
      S->BreakSinceMarkReason = Down.Reason;
      while (!S->Slots.empty()) {
        Seq First = S->Slots.firstSeq();
        S->FulfilledThrough = First;
        Counters.CallsBroken->inc();
        ReplyCallback Cb = std::move(S->Slots.at(First).Cb);
        S->Slots.erase(First);
        if (Settle && Cb)
          Cb(Down);
      }
    }
    // Processes blocked in synch or on a full window must not hang on a
    // dead transport.
    S->FulfillQ->notifyAll();
    S->WindowCv.notifyAll();
  }
  for (auto &[FromAddr, Shard] : ReceiverShards) {
    for (auto &[SK, R] : Shard.Streams) {
      if (R->ReplyFlushTimerArmed)
        Sim.cancel(R->ReplyFlushTimer);
      if (R->AckTimerArmed)
        Sim.cancel(R->AckTimer);
      R->ReplyFlushTimerArmed = R->AckTimerArmed = false;
    }
  }
  for (auto &[K, B] : Breakers) {
    if (B.ProbeTimerArmed)
      Sim.cancel(B.ProbeTimer);
    B.ProbeTimerArmed = false;
  }
}

//===----------------------------------------------------------------------===//
// Sender side
//===----------------------------------------------------------------------===//

StreamTransport::SenderShard &
StreamTransport::senderShard(const net::Address &R) {
  // One-entry cache: the hot paths (issue, reply handling) hammer a single
  // endpoint at a time, and shards are never erased, so the pointer is
  // stable for the transport's lifetime.
  if (LastSenderShard && LastSenderAddr == R)
    return *LastSenderShard;
  SenderShard &Sh = SenderShards[R];
  LastSenderAddr = R;
  LastSenderShard = &Sh;
  return Sh;
}

StreamTransport::SenderShard *
StreamTransport::findSenderShard(const net::Address &R) const {
  if (LastSenderShard && LastSenderAddr == R)
    return LastSenderShard;
  auto It = SenderShards.find(R);
  if (It == SenderShards.end())
    return nullptr;
  LastSenderAddr = R;
  LastSenderShard = const_cast<SenderShard *>(&It->second);
  return LastSenderShard;
}

StreamTransport::ReceiverShard *
StreamTransport::findReceiverShard(const net::Address &From) const {
  auto It = ReceiverShards.find(From);
  return It != ReceiverShards.end()
             ? const_cast<ReceiverShard *>(&It->second)
             : nullptr;
}

size_t StreamTransport::senderStreamCount() const {
  size_t N = 0;
  for (const auto &[Addr2, Sh] : SenderShards)
    N += Sh.Streams.size();
  return N;
}

size_t StreamTransport::receiverStreamCount() const {
  size_t N = 0;
  for (const auto &[Addr2, Sh] : ReceiverShards)
    N += Sh.Streams.size();
  return N;
}

StreamTransport::SenderStream *
StreamTransport::findSender(AgentId A, net::Address R, GroupId G) const {
  SenderShard *Sh = findSenderShard(R);
  if (!Sh)
    return nullptr;
  auto It = Sh->Streams.find(StreamKey{A, G});
  return It != Sh->Streams.end() ? It->second.get() : nullptr;
}

StreamTransport::SenderStream &
StreamTransport::getSender(AgentId A, net::Address R, GroupId G) {
  SenderKey Key = senderKey(A, R, G);
  auto &Slot = senderShard(R).Streams[StreamKey{A, G}];
  if (!Slot) {
    Slot = std::make_unique<SenderStream>(Sim, A, R, G);
    auto It = Retired.find(Key);
    if (It != Retired.end()) {
      // Resurrect the retired stream as the broken stream it was: the
      // preserved incarnation keeps the receiver's stale-incarnation
      // filter working, and the preserved break outcome keeps the
      // broken-stream paths (AutoRestart, synch marks) uniform.
      Slot->Inc = It->second.Inc;
      Slot->Broken = true;
      Slot->BrokenIsFailure = It->second.IsFailure;
      Slot->BreakReason = It->second.Reason;
      Slot->ExceptionSinceMark = It->second.ExceptionSinceMark;
      Slot->BreakSinceMark = It->second.BreakSinceMark;
      Slot->BreakSinceMarkIsFailure = It->second.BreakSinceMarkIsFailure;
      Slot->BreakSinceMarkReason = It->second.BreakSinceMarkReason;
      Retired.erase(It);
    }
  }
  return *Slot;
}

bool StreamTransport::windowFull(const SenderStream &S) const {
  return (Cfg.MaxInFlightCalls > 0 &&
          S.Window.size() >= Cfg.MaxInFlightCalls) ||
         (Cfg.MaxInFlightBytes > 0 && S.WindowBytes >= Cfg.MaxInFlightBytes);
}

void StreamTransport::blockForWindow(SenderStream &S) {
  sim::Time T0 = Sim.now();
  Counters.CallsBlocked->inc();
  if (Reg.enabled())
    Reg.emit({T0, EventKind::SenderBlocked, Node, S.Agent, S.Window.size(),
              0, {}});
  ++S.PinCount;
  struct Unpin {
    int &Count;
    ~Unpin() { --Count; }
  } U{S.PinCount};
  {
    // FIFO mutex + condition: blocked issuers reacquire in block order,
    // so window space is handed out in issue (= seq) order.
    sim::SimMutex::Guard G(S.WindowMx);
    while (!Dead && !S.Broken && windowFull(S))
      S.WindowCv.wait(S.WindowMx);
  }
  sim::Time Blocked = Sim.now() - T0;
  Counters.BlockTimeUs->observe(static_cast<double>(Blocked) / 1e3);
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::SenderUnblocked, Node,
              S.Agent, S.Window.size(), Blocked, {}});
}

void StreamTransport::maybeRetireSender(const SenderKey &K) {
  if (Dead)
    return;
  SenderShard *Sh = findSenderShard(std::get<1>(K));
  if (!Sh)
    return;
  auto It = Sh->Streams.find(StreamKey{std::get<0>(K), std::get<2>(K)});
  if (It == Sh->Streams.end())
    return;
  SenderStream &S = *It->second;
  if (!S.Broken || S.PinCount > 0)
    return;
  assert(!S.FlushTimerArmed && !S.RetransTimerArmed && !S.AckTimerArmed &&
         "broken stream left a timer armed");
  assert(S.Slots.empty() && S.Window.empty() &&
         "broken stream retains calls");
  RetiredSender T;
  T.Inc = S.Inc;
  T.IsFailure = S.BrokenIsFailure;
  T.Reason = S.BreakReason;
  T.ExceptionSinceMark = S.ExceptionSinceMark;
  T.BreakSinceMark = S.BreakSinceMark;
  T.BreakSinceMarkIsFailure = S.BreakSinceMarkIsFailure;
  T.BreakSinceMarkReason = S.BreakSinceMarkReason;
  Retired[K] = std::move(T);
  // The stream goes; its (empty) shard stays warm for the next stream to
  // this endpoint.
  Sh->Streams.erase(It);
}

StreamTransport::IssueResult
StreamTransport::issueCall(AgentId Agent, net::Address Remote, GroupId Group,
                           PortId Port, wire::Bytes Args, bool NoReply,
                           bool IsRpc, ReplyCallback OnReply,
                           sim::Time DeadlineAt) {
  if (Dead)
    return {false, false, core::reasons::TransportShutDown};
  // Circuit breaker: a tripped endpoint fails fast before any stream state
  // is touched — no seq consumed, no datagram sent, no promise blocks.
  if (Cfg.BreakerThreshold > 0) {
    SenderKey Key = senderKey(Agent, Remote, Group);
    auto BIt = Breakers.find(Key);
    if (BIt != Breakers.end() && BIt->second.State != 0) {
      Counters.BreakerFastFails->inc();
      armBreakerProbe(Key);
      return {false, false, core::reasons::CircuitOpen};
    }
  }
  SenderStream &S = getSender(Agent, Remote, Group);
  // Flow control: block (in issue order) until the in-flight window has
  // room. Only simulated processes can block; scheduler-context callers
  // (timers, tests poking the transport directly) bypass the limit. A
  // broken stream's window is empty, so it never blocks — the break
  // handling below decides what happens to the call.
  if ((Cfg.MaxInFlightCalls > 0 || Cfg.MaxInFlightBytes > 0) &&
      sim::Simulation::inProcess() && !S.Broken && windowFull(S)) {
    blockForWindow(S);
    if (Dead)
      return {false, false, core::reasons::TransportShutDown};
  }
  if (S.Broken) {
    if (!Cfg.AutoRestart) {
      IssueResult R{false, S.BrokenIsFailure, S.BreakReason};
      maybeRetireSender(senderKey(Agent, Remote, Group));
      return R;
    }
    reincarnate(S);
  }
  Seq Sq = S.NextSeq++;
  CallReq Req;
  Req.S = Sq;
  Req.Port = Port;
  Req.NoReply = NoReply;
  Req.FlushReply = IsRpc;
  Req.DeadlineNs = DeadlineAt;
  S.BufferedBytes += Args.size();
  S.WindowBytes += Args.size();
  Req.Args = std::move(Args);
  S.Window.insert(Sq, std::move(Req));
  Counters.WindowOccupancy->observe(static_cast<double>(S.Window.size()));
  SenderStream::Slot Slot;
  Slot.NoReply = NoReply;
  Slot.IsRpc = IsRpc;
  Slot.IssuedAt = Sim.now();
  Slot.Cb = std::move(OnReply);
  S.Slots.insert(Sq, std::move(Slot));
  Counters.CallsIssued->inc();
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::CallIssued, Node, Agent, Sq,
              0, {}});

  if (IsRpc) {
    // RPCs "are sent over the network immediately, to minimize the delay
    // for a call" — and they carry any earlier buffered stream calls with
    // them, preserving order.
    transmitNewCalls(S, /*FlushReplies=*/true);
  } else if (S.untransmittedCount() >= Cfg.MaxBatchCalls ||
             S.BufferedBytes >= Cfg.MaxBatchBytes) {
    transmitNewCalls(S, /*FlushReplies=*/false);
  } else {
    armSenderFlushTimer(S);
  }
  return {true, false, {}, Sq, S.Inc};
}

bool StreamTransport::cancelCall(AgentId Agent, net::Address Remote,
                                 GroupId Group, Seq Sq, Incarnation Inc) {
  if (Dead)
    return false;
  SenderStream *S = findSender(Agent, Remote, Group);
  if (!S || S->Broken || S->Inc != Inc)
    return false;
  if (Sq <= S->FulfilledThrough || Sq >= S->NextSeq)
    return false; // Outcome already known, or never issued.
  // The receiver can only act on a cancel for a call it will see: push any
  // untransmitted prefix out first so the cancel never overtakes the call
  // into a void.
  if (S->TransmittedThrough < Sq)
    transmitNewCalls(*S, /*FlushReplies=*/false);
  CancelMsg M;
  M.Agent = Agent;
  M.Group = Group;
  M.Inc = S->Inc;
  M.Seqs.push_back(Sq);
  Counters.CancelsSent->inc();
  sendMessage(Remote, Message(std::move(M)));
  return true;
}

void StreamTransport::transmitNewCalls(SenderStream &S, bool FlushReplies) {
  if (S.Broken || Dead)
    return;
  Seq From = S.TransmittedThrough + 1;
  Seq Through = S.NextSeq - 1;
  bool HasReplyGap = S.FulfilledThrough < S.TransmittedThrough;
  if (From > Through && !(FlushReplies && HasReplyGap))
    return; // Nothing to send and nothing to flush out of the far side.
  sendCallBatch(S, From, Through, FlushReplies, /*IsRetransmit=*/false);
  S.TransmittedThrough = Through;
  S.BufferedBytes = 0;
  if (S.FlushTimerArmed) {
    Sim.cancel(S.FlushTimer);
    S.FlushTimerArmed = false;
  }
  armSenderRetransTimer(S);
}

void StreamTransport::sendCallBatch(SenderStream &S, Seq FromSeq,
                                    Seq ThroughSeq, bool FlushReplies,
                                    bool IsRetransmit) {
  CallBatchMsg M;
  M.Agent = S.Agent;
  M.Group = S.Group;
  M.Inc = S.Inc;
  M.AckReplyThrough = S.FulfilledThrough;
  M.FlushReplies = FlushReplies;
  for (Seq Q = FromSeq; Q <= ThroughSeq; ++Q) {
    const CallReq *C = S.Window.find(Q);
    PROMISES_CHECK(C != nullptr, "call missing from window");
    M.Calls.push_back(*C);
  }
  if (IsRetransmit) {
    Counters.Retransmissions->inc(M.Calls.size());
    Counters.RetransmitBatch->observe(static_cast<double>(M.Calls.size()));
    size_t Bytes = 0;
    for (const CallReq &C : M.Calls)
      Bytes += C.Args.size();
    Counters.RetransmittedBytes->inc(Bytes);
  }
  S.LastAckSent = S.FulfilledThrough;
  if (M.Calls.empty()) {
    Counters.AckBatchesSent->inc();
  } else {
    Counters.CallBatchesSent->inc();
    if (!IsRetransmit)
      Counters.BatchOccupancy->observe(static_cast<double>(M.Calls.size()));
  }
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::CallBatchTx, Node, S.Agent,
              M.Calls.size(), 0, {}});
  sendMessage(S.Remote, Message(std::move(M)));
}

void StreamTransport::armSenderFlushTimer(SenderStream &S) {
  if (S.FlushTimerArmed || S.Broken)
    return;
  S.FlushTimerArmed = true;
  S.FlushTimer = Sim.schedule(Cfg.FlushInterval, [this, &S] {
    S.FlushTimerArmed = false;
    if (Dead || S.Broken)
      return;
    if (S.untransmittedCount() > 0)
      transmitNewCalls(S, /*FlushReplies=*/false);
  });
}

/// Re-sends the unacknowledged window in chunks that respect the batch
/// limits, exactly like fresh transmission does. One chunk always carries
/// at least one call, even when that call alone exceeds MaxBatchBytes.
/// Only the last chunk asks the receiver to flush replies: one recovery
/// reply-batch per round, not one per chunk.
void StreamTransport::retransmitWindow(SenderStream &S) {
  size_t MaxCalls = std::max<size_t>(1, Cfg.MaxBatchCalls);
  Seq From = S.AckedCallThrough + 1;
  Seq Last = S.TransmittedThrough;
  while (From <= Last) {
    Seq Through = From;
    size_t Bytes = S.Window.at(From).Args.size();
    while (Through < Last && Through - From + 1 < MaxCalls) {
      size_t NextBytes = S.Window.at(Through + 1).Args.size();
      if (Bytes + NextBytes > Cfg.MaxBatchBytes)
        break;
      Bytes += NextBytes;
      ++Through;
    }
    sendCallBatch(S, From, Through, /*FlushReplies=*/Through == Last,
                  /*IsRetransmit=*/true);
    From = Through + 1;
  }
}

void StreamTransport::armSenderRetransTimer(SenderStream &S) {
  if (S.RetransTimerArmed || S.Broken || Dead)
    return;
  S.RetransTimerArmed = true;
  sim::Time Base = S.CurrentRto ? S.CurrentRto : Cfg.RetransmitTimeout;
  sim::Time Delay = Base;
  if (Cfg.RetransJitter > 0) {
    auto Span = static_cast<uint64_t>(static_cast<double>(Base) *
                                      Cfg.RetransJitter);
    if (Span > 0)
      Delay += static_cast<sim::Time>(RetransRng.below(Span + 1));
  }
  S.RetransTimer = Sim.schedule(Delay, [this, &S] {
    S.RetransTimerArmed = false;
    if (Dead || S.Broken)
      return;
    onSenderRetransTimer(S);
  });
}

void StreamTransport::onSenderRetransTimer(SenderStream &S) {
  bool AwaitingAck = S.AckedCallThrough < S.TransmittedThrough;
  bool AwaitingReply = S.FulfilledThrough < S.TransmittedThrough;
  if (!AwaitingAck && !AwaitingReply) {
    S.Retries = 0;
    S.CurrentRto = 0;
    return; // Quiesced; the timer stays disarmed until the next transmit.
  }
  // Progress since the last firing: all is well — reset the retry budget
  // (and the backoff) and keep waiting without retransmitting or probing.
  if (S.AckedCallThrough > S.LastProgressAcked ||
      S.FulfilledThrough > S.LastProgressFulfilled) {
    S.Retries = 0;
    S.CurrentRto = 0;
    S.LastProgressAcked = S.AckedCallThrough;
    S.LastProgressFulfilled = S.FulfilledThrough;
    armSenderRetransTimer(S);
    return;
  }
  S.LastProgressAcked = S.AckedCallThrough;
  S.LastProgressFulfilled = S.FulfilledThrough;
  if (++S.Retries > Cfg.MaxRetries) {
    // The system "tried hard"; give up and break (paper, Section 2).
    SenderKey Key = senderKey(S.Agent, S.Remote, S.Group);
    Incarnation Inc = S.Inc;
    breakSender(S, /*IsFailure=*/false, core::reasons::CannotCommunicate);
    // Only timeout breaks feed the circuit breaker: they are the
    // endpoint-unreachable signal. Receiver-reported breaks arrive in
    // reply batches, proving reachability.
    if (Cfg.BreakerThreshold > 0)
      breakerOnTimeoutBreak(Key, Inc);
    maybeRetireSender(Key);
    return;
  }
  if (AwaitingAck) {
    retransmitWindow(S);
  } else {
    // Calls delivered but replies missing: probe so the receiver resends
    // its unacked-reply state.
    Counters.Probes->inc();
    sendCallBatch(S, 1, 0, /*FlushReplies=*/true, /*IsRetransmit=*/false);
  }
  // An unproductive round: back off before the next firing, up to the cap.
  sim::Time Cap = std::max(Cfg.RetransmitTimeoutMax, Cfg.RetransmitTimeout);
  sim::Time Cur = S.CurrentRto ? S.CurrentRto : Cfg.RetransmitTimeout;
  S.CurrentRto = backoffRto(Cur, Cfg.RetransBackoff, Cap);
  armSenderRetransTimer(S);
}

void StreamTransport::armSenderAckTimer(SenderStream &S) {
  if (S.AckTimerArmed || S.Broken || Dead)
    return;
  S.AckTimerArmed = true;
  S.AckTimer = Sim.schedule(Cfg.AckDelay, [this, &S] {
    S.AckTimerArmed = false;
    if (Dead || S.Broken)
      return;
    if (S.LastAckSent < S.FulfilledThrough)
      sendCallBatch(S, 1, 0, /*FlushReplies=*/false, /*IsRetransmit=*/false);
  });
}

void StreamTransport::handleReplyBatch(const net::Address &From,
                                       ReplyBatchMsg &M) {
  // Any reply batch proves the endpoint is reachable, so it closes an
  // open/half-open breaker — before the liveness checks below, because the
  // probed stream is typically broken or already retired to a tombstone.
  if (Cfg.BreakerThreshold > 0)
    breakerOnReply(senderKey(M.Agent, From, M.Group));
  SenderStream *S = findSender(M.Agent, From, M.Group);
  if (!S || S->Broken || M.Inc != S->Inc)
    return;

  // Delivery acknowledgements let the retransmission window shrink — and
  // window space frees the oldest blocked issuer first (FIFO wakeup).
  if (M.AckCallThrough > S->AckedCallThrough) {
    S->AckedCallThrough = M.AckCallThrough;
    while (!S->Window.empty() &&
           S->Window.firstSeq() <= S->AckedCallThrough) {
      Seq Q = S->Window.firstSeq();
      S->WindowBytes -= S->Window.at(Q).Args.size();
      S->Window.erase(Q);
    }
    S->WindowCv.notifyAll();
  }

  // Merge explicit replies; detect a batch that carries nothing new
  // (the receiver missed our ack — re-ack immediately).
  bool AnyNew = false;
  for (WireReply &R : M.Replies) {
    if (R.S > S->FulfilledThrough && !S->PendingReplies.contains(R.S)) {
      S->PendingReplies.insert(R.S, std::move(R));
      AnyNew = true;
    }
  }
  if (M.CompletedThrough > S->CompletedThroughMax) {
    S->CompletedThroughMax = M.CompletedThrough;
    AnyNew = true;
  }

  // Consume outcomes in order first (a synchronous break leaves calls up
  // to CompletedThrough unaffected), then apply the break to the rest.
  Seq Before = S->FulfilledThrough;
  fulfillInOrder(*S);
  if (M.Broken) {
    AgentId Agent = S->Agent;
    net::Address Remote = S->Remote;
    GroupId Group = S->Group;
    breakSender(*S, M.BreakIsFailure, M.BreakReason);
    maybeRetireSender(senderKey(Agent, Remote, Group));
    return;
  }
  if (!M.Replies.empty() && !AnyNew) {
    // Nothing new: the receiver missed our ack — repeat it immediately.
    sendCallBatch(*S, 1, 0, /*FlushReplies=*/false, /*IsRetransmit=*/false);
    return;
  }
  if (S->FulfilledThrough > Before)
    armSenderAckTimer(*S);
}

void StreamTransport::fulfillInOrder(SenderStream &S) {
  bool Progress = false;
  while (S.FulfilledThrough < S.CompletedThroughMax) {
    Seq Next = S.FulfilledThrough + 1;
    SenderStream::Slot *Slot = S.Slots.find(Next);
    PROMISES_CHECK(Slot != nullptr, "missing reply slot");
    ReplyOutcome O;
    WireReply *PR = S.PendingReplies.find(Next);
    if (PR) {
      // The entry is consumed exactly once (erased below): move the
      // payload out rather than copying it.
      WireReply &W = *PR;
      switch (W.Status) {
      case ReplyStatus::Normal:
        O.K = ReplyOutcome::Kind::Normal;
        O.Payload = std::move(W.Payload);
        break;
      case ReplyStatus::Exception:
        O.K = ReplyOutcome::Kind::Exception;
        O.ExTag = W.ExTag;
        O.Payload = std::move(W.Payload);
        break;
      case ReplyStatus::Failure:
        O.K = ReplyOutcome::Kind::Failure;
        O.Reason = std::move(W.Reason);
        break;
      case ReplyStatus::Unavailable:
        // Per-call unavailability (deadline expired, cancelled, shed):
        // the stream itself stays healthy.
        O.K = ReplyOutcome::Kind::Unavailable;
        O.Reason = std::move(W.Reason);
        break;
      }
      S.PendingReplies.erase(Next);
    } else if (Slot->NoReply) {
      O.K = ReplyOutcome::Kind::Normal; // A send that completed normally.
    } else {
      break; // The explicit reply is still in flight; probes recover it.
    }
    S.FulfilledThrough = Next;
    Progress = true;
    Counters.CallsFulfilled->inc();
    if (Reg.enabled()) {
      sim::Time Now = Sim.now();
      sim::Time Lat = Now - Slot->IssuedAt;
      Counters.CallLatencyUs->observe(static_cast<double>(Lat) / 1e3);
      Reg.emit({Slot->IssuedAt, EventKind::CallSpan, Node, S.Agent,
                Next, Lat, {}});
    }
    bool WasRpc = Slot->IsRpc;
    ReplyCallback Cb = std::move(Slot->Cb);
    S.Slots.erase(Next);
    if (WasRpc) {
      // "since the last synch or regular RPC on the stream": an RPC's own
      // completion starts a fresh synch window.
      S.resetMark();
    } else if (O.K != ReplyOutcome::Kind::Normal) {
      S.ExceptionSinceMark = true;
    }
    if (Cb)
      Cb(O);
  }
  if (Progress)
    S.FulfillQ->notifyAll();
}

void StreamTransport::breakSender(SenderStream &S, bool IsFailure,
                                  std::string Reason) {
  if (S.Broken)
    return;
  Counters.SenderBreaks->inc();
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::SenderBreak, Node, S.Agent,
              S.Inc, 0, Reason});
  S.Broken = true;
  S.BrokenIsFailure = IsFailure;
  S.BreakReason = Reason;
  S.BreakSinceMark = true;
  S.BreakSinceMarkIsFailure = IsFailure;
  S.BreakSinceMarkReason = Reason;

  ReplyOutcome O = IsFailure ? ReplyOutcome::failure(Reason)
                             : ReplyOutcome::unavailable(Reason);
  // Every call without an outcome terminates with the break outcome, still
  // in call order.
  while (!S.Slots.empty()) {
    Seq First = S.Slots.firstSeq();
    PROMISES_CHECK(First == S.FulfilledThrough + 1, "slot gap at break");
    S.FulfilledThrough = First;
    Counters.CallsBroken->inc();
    ReplyCallback Cb = std::move(S.Slots.at(First).Cb);
    S.Slots.erase(First);
    if (Cb)
      Cb(O);
  }
  S.Window.clear();
  S.PendingReplies.clear();
  S.BufferedBytes = 0;
  S.WindowBytes = 0;
  if (S.FlushTimerArmed) {
    Sim.cancel(S.FlushTimer);
    S.FlushTimerArmed = false;
  }
  if (S.RetransTimerArmed) {
    Sim.cancel(S.RetransTimer);
    S.RetransTimerArmed = false;
  }
  if (S.AckTimerArmed) {
    Sim.cancel(S.AckTimer);
    S.AckTimerArmed = false;
  }
  S.FulfillQ->notifyAll();
  // Issuers blocked on window space observe the break and decide between
  // reincarnation and failure when they resume.
  S.WindowCv.notifyAll();
}

void StreamTransport::reincarnate(SenderStream &S) {
  PROMISES_CHECK(S.Broken, "reincarnate of a live stream");
  Counters.Restarts->inc();
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::StreamRestart, Node, S.Agent,
              static_cast<uint64_t>(S.Inc) + 1, 0, {}});
  ++S.Inc;
  S.NextSeq = 1;
  S.TransmittedThrough = 0;
  S.AckedCallThrough = 0;
  S.CompletedThroughMax = 0;
  S.FulfilledThrough = 0;
  S.LastAckSent = 0;
  S.Window.clear();
  S.Slots.clear();
  S.PendingReplies.clear();
  S.BufferedBytes = 0;
  S.WindowBytes = 0;
  S.Broken = false;
  S.BrokenIsFailure = false;
  S.BreakReason.clear();
  S.Retries = 0;
  S.LastProgressAcked = 0;
  S.LastProgressFulfilled = 0;
  S.CurrentRto = 0;
  S.WindowCv.notifyAll(); // The fresh incarnation's window is empty.
}

void StreamTransport::flush(AgentId Agent, net::Address Remote,
                            GroupId Group) {
  if (Dead)
    return;
  SenderStream *S = findSender(Agent, Remote, Group);
  if (!S || S->Broken)
    return;
  transmitNewCalls(*S, /*FlushReplies=*/true);
}

SynchOutcome StreamTransport::synch(AgentId Agent, net::Address Remote,
                                    GroupId Group) {
  assert(sim::Simulation::inProcess() &&
         "synch must be called from a simulated process");
  SenderKey Key = senderKey(Agent, Remote, Group);
  SenderStream &S = getSender(Agent, Remote, Group);
  if (!S.Broken)
    transmitNewCalls(S, /*FlushReplies=*/true);
  {
    // Pin the stream across the blocking wait: a break must not retire it
    // out from under this frame.
    ++S.PinCount;
    struct Unpin {
      int &Count;
      ~Unpin() { --Count; }
    } U{S.PinCount};
    while (!S.Broken && !Dead && S.outstanding() > 0)
      S.FulfillQ->wait();
  }
  // A shutdown settled every outstanding call and set the break mark, so
  // a dead transport reports itself here.
  SynchOutcome Out;
  if (S.BreakSinceMark) {
    Out.S = S.BreakSinceMarkIsFailure ? SynchOutcome::Status::Failure
                                      : SynchOutcome::Status::Unavailable;
    Out.Reason = S.BreakSinceMarkReason;
  } else if (S.ExceptionSinceMark) {
    Out.S = SynchOutcome::Status::ExceptionReply;
  }
  S.resetMark();
  maybeRetireSender(Key);
  return Out;
}

void StreamTransport::restart(AgentId Agent, net::Address Remote,
                              GroupId Group) {
  if (Dead)
    return;
  SenderStream &S = getSender(Agent, Remote, Group);
  if (!S.Broken)
    breakSender(S, /*IsFailure=*/false, core::reasons::StreamRestarted);
  reincarnate(S);
}

bool StreamTransport::isBroken(AgentId Agent, net::Address Remote,
                               GroupId Group) const {
  if (SenderStream *S = findSender(Agent, Remote, Group))
    return S->Broken;
  return Retired.count(senderKey(Agent, Remote, Group)) != 0;
}

size_t StreamTransport::armedTimerCount() const {
  size_t N = 0;
  for (const auto &[Addr2, Sh] : SenderShards)
    for (const auto &[SK, S] : Sh.Streams)
      N += static_cast<size_t>(S->FlushTimerArmed) +
           static_cast<size_t>(S->RetransTimerArmed) +
           static_cast<size_t>(S->AckTimerArmed);
  for (const auto &[Addr2, Sh] : ReceiverShards)
    for (const auto &[SK, R] : Sh.Streams)
      N += static_cast<size_t>(R->ReplyFlushTimerArmed) +
           static_cast<size_t>(R->AckTimerArmed);
  for (const auto &[K, B] : Breakers)
    N += static_cast<size_t>(B.ProbeTimerArmed);
  return N;
}

size_t StreamTransport::brokenSenderStreamCount() const {
  size_t N = 0;
  for (const auto &[Addr2, Sh] : SenderShards)
    for (const auto &[SK, S] : Sh.Streams)
      N += static_cast<size_t>(S->Broken);
  return N;
}

size_t StreamTransport::senderWindowSize(AgentId Agent, net::Address Remote,
                                         GroupId Group) const {
  SenderStream *S = findSender(Agent, Remote, Group);
  return S ? S->Window.size() : 0;
}

//===----------------------------------------------------------------------===//
// Endpoint circuit breaker
//===----------------------------------------------------------------------===//

void StreamTransport::breakerOnTimeoutBreak(const SenderKey &K,
                                            Incarnation Inc) {
  Breaker &B = Breakers[K];
  B.ProbeInc = Inc;
  if (B.State != 0)
    return; // Already open; probes decide when to close.
  if (++B.Consecutive < Cfg.BreakerThreshold)
    return;
  B.State = 1;
  Counters.BreakerOpens->inc();
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::BreakerOpen, Node,
              std::get<0>(K), static_cast<uint64_t>(B.Consecutive), 0, {}});
  armBreakerProbe(K);
}

void StreamTransport::breakerOnReply(const SenderKey &K) {
  auto It = Breakers.find(K);
  if (It == Breakers.end())
    return;
  Breaker &B = It->second;
  // Any reply batch — even a break notice — proves reachability: reset
  // the consecutive-timeout count, and close the breaker if tripped.
  B.Consecutive = 0;
  if (B.State == 0)
    return;
  B.State = 0;
  if (B.ProbeTimerArmed) {
    Sim.cancel(B.ProbeTimer);
    B.ProbeTimerArmed = false;
  }
  Counters.BreakerCloses->inc();
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::BreakerClose, Node,
              std::get<0>(K), 0, 0, {}});
}

void StreamTransport::armBreakerProbe(const SenderKey &K) {
  auto It = Breakers.find(K);
  if (It == Breakers.end() || It->second.ProbeTimerArmed || Dead)
    return;
  It->second.ProbeTimerArmed = true;
  // The timer fires exactly once (rearmed only by the next fail-fast), so
  // an unreachable endpoint cannot keep the event queue alive forever.
  It->second.ProbeTimer =
      Sim.schedule(Cfg.BreakerCooldown, [this, K] {
        auto BIt = Breakers.find(K);
        if (BIt == Breakers.end())
          return;
        BIt->second.ProbeTimerArmed = false;
        if (Dead || BIt->second.State == 0)
          return;
        sendBreakerProbe(K, BIt->second);
      });
}

void StreamTransport::sendBreakerProbe(const SenderKey &K, Breaker &B) {
  // Probe at the newest incarnation this endpoint knows about so the
  // receiver's stale-incarnation filter lets it through.
  Incarnation Inc = B.ProbeInc;
  if (SenderStream *S =
          findSender(std::get<0>(K), std::get<1>(K), std::get<2>(K)))
    Inc = S->Inc;
  else if (auto RIt = Retired.find(K); RIt != Retired.end())
    Inc = RIt->second.Inc;
  B.State = 2; // Half-open: one probe in flight, any reply closes.
  Counters.BreakerProbes->inc();
  CallBatchMsg M;
  M.Agent = std::get<0>(K);
  M.Group = std::get<2>(K);
  M.Inc = Inc;
  M.FlushReplies = true;
  Counters.AckBatchesSent->inc();
  sendMessage(std::get<1>(K), Message(std::move(M)));
}

int StreamTransport::breakerState(AgentId Agent, net::Address Remote,
                                  GroupId Group) const {
  auto It = Breakers.find(senderKey(Agent, Remote, Group));
  return It != Breakers.end() ? It->second.State : 0;
}

size_t StreamTransport::openBreakerCount() const {
  size_t N = 0;
  for (const auto &[K, B] : Breakers)
    N += static_cast<size_t>(B.State != 0);
  return N;
}

Seq StreamTransport::outstandingCalls(AgentId Agent, net::Address Remote,
                                      GroupId Group) const {
  SenderStream *S = findSender(Agent, Remote, Group);
  return S ? S->outstanding() : 0;
}

//===----------------------------------------------------------------------===//
// Receiver side
//===----------------------------------------------------------------------===//

StreamTransport::ReceiverStream &
StreamTransport::getReceiver(const net::Address &From, const CallBatchMsg &M) {
  auto &Slot = ReceiverShards[From].Streams[StreamKey{M.Agent, M.Group}];
  if (Slot && Slot->Inc == M.Inc)
    return *Slot;
  if (Slot) {
    // A newer incarnation replaces the old one; the old stream is dead
    // (its completions will be dropped). Its timers capture the old
    // object, so cancel them before destroying it.
    PROMISES_CHECK(M.Inc > Slot->Inc, "caller filters stale incarnations");
    if (Slot->ReplyFlushTimerArmed)
      Sim.cancel(Slot->ReplyFlushTimer);
    if (Slot->AckTimerArmed)
      Sim.cancel(Slot->AckTimer);
    ReceiversByTag.erase(Slot->Tag);
    if (Reg.enabled())
      Reg.emit({Sim.now(), EventKind::StreamSuperseded, Node,
                Slot->Tag, M.Inc, 0, {}});
    if (StreamDeadHook)
      StreamDeadHook(Slot->Tag); // Orphaned executions get destroyed.
  }
  auto R = std::make_unique<ReceiverStream>();
  R->Tag = NextStreamTag++;
  R->SenderAddr = From;
  R->Agent = M.Agent;
  R->Group = M.Group;
  R->Inc = M.Inc;
  ReceiversByTag[R->Tag] = R.get();
  Slot = std::move(R);
  return *Slot;
}

void StreamTransport::handleCallBatch(const net::Address &From,
                                      CallBatchMsg &M) {
  // Filter stale incarnations before touching state.
  if (ReceiverShard *Sh = findReceiverShard(From)) {
    auto Existing = Sh->Streams.find(StreamKey{M.Agent, M.Group});
    if (Existing != Sh->Streams.end() && M.Inc < Existing->second->Inc)
      return;
  }
  ReceiverStream &R = getReceiver(From, M);

  if (R.Broken) {
    // "Further calls on that stream will be discarded" — but keep telling
    // the sender about the break until it learns.
    sendReplyBatch(R, /*ResendAll=*/true);
    return;
  }

  // The sender has consumed replies through AckReplyThrough.
  while (!R.UnackedReplies.empty() &&
         R.UnackedReplies.firstSeq() <= M.AckReplyThrough)
    R.UnackedReplies.erase(R.UnackedReplies.firstSeq());

  bool SawDuplicate = false;
  for (CallReq &C : M.Calls) {
    if (C.S < R.NextExpected || R.Future.contains(C.S)) {
      Counters.DuplicateCallsDropped->inc();
      SawDuplicate = true;
      continue;
    }
    R.Future.insert(C.S, std::move(C));
  }
  deliverReadyCalls(R);

  if (M.FlushReplies) {
    R.FlushThrough = std::max(R.FlushThrough, R.NextExpected - 1);
    // The ack / probe response: resend everything unacknowledged so a
    // sender stalled by a lost reply batch always recovers.
    sendReplyBatch(R, /*ResendAll=*/true);
    return;
  }
  if (SawDuplicate)
    R.NeedAck = true;
  if (R.NextExpected - 1 > R.LastSentAck || R.NeedAck)
    armReceiverAckTimer(R);
}

void StreamTransport::deliverReadyCalls(ReceiverStream &R) {
  if (!CallSink)
    return;
  while (!R.Future.empty() && R.Future.firstSeq() == R.NextExpected) {
    CallReq C = std::move(R.Future.at(R.NextExpected));
    R.Future.erase(R.NextExpected);
    ++R.NextExpected;
    if (R.Cancelled.count(C.S)) {
      // Cancelled before delivery: never reaches user code, but still
      // completes (as cancelled) through the reply path so the sender's
      // accounting is conserved.
      Counters.CallsCancelled->inc();
      if (Reg.enabled())
        Reg.emit({Sim.now(), EventKind::CallCancelled, Node,
                  R.Tag, C.S, 0, {}});
      // The runtime never sees this call, but it must still learn the seq
      // is settled — successors gate on their predecessors in call order.
      if (CallCancelHook)
        CallCancelHook(R.Tag, C.S);
      completeCall(R, C.S, /*NoReply=*/false, C.FlushReply,
                   ReplyStatus::Unavailable, 0, {},
                   core::reasons::Cancelled);
      continue;
    }
    Counters.CallsDelivered->inc();
    IncomingCall IC;
    IC.StreamTag = R.Tag;
    IC.CallSeq = C.S;
    IC.Group = R.Group;
    IC.Port = C.Port;
    IC.NoReply = C.NoReply;
    IC.DeadlineNs = C.DeadlineNs;
    IC.Args = std::move(C.Args);
    uint64_t Tag = R.Tag;
    Seq S = C.S;
    bool NoReply = C.NoReply;
    bool FlushReply = C.FlushReply;
    IC.Complete = [this, Tag, S, NoReply, FlushReply](
                      ReplyStatus St, uint32_t ExTag, wire::Bytes Payload,
                      std::string Reason) {
      if (Dead)
        return;
      auto It = ReceiversByTag.find(Tag);
      if (It == ReceiversByTag.end())
        return; // Superseded incarnation.
      if (It->second->Cancelled.count(S))
        return; // Already completed as cancelled; the call process was
                // killed but unwound late (critical section).
      completeCall(*It->second, S, NoReply, FlushReply, St, ExTag,
                   std::move(Payload), std::move(Reason));
    };
    CallSink(std::move(IC));
  }
}

void StreamTransport::handleCancel(const net::Address &From,
                                   const CancelMsg &M) {
  ReceiverShard *Sh = findReceiverShard(From);
  if (!Sh)
    return;
  auto It = Sh->Streams.find(StreamKey{M.Agent, M.Group});
  if (It == Sh->Streams.end())
    return;
  ReceiverStream &R = *It->second;
  if (R.Broken || R.Inc != M.Inc)
    return;
  for (Seq S : M.Seqs) {
    if (S >= R.NextExpected) {
      // Not yet delivered (possibly not yet received): cancel at delivery
      // time, preserving call order.
      R.Cancelled.insert(S);
      continue;
    }
    if (S <= R.CompletedThrough || R.DoneAhead.contains(S) ||
        R.Cancelled.count(S))
      continue; // Already completed (or already cancelled): too late.
    // Delivered and executing (or gated): destroy the call process like an
    // orphan, then complete on its behalf. The completion must precede the
    // Cancelled insert — it is a real completion, not a late duplicate.
    Counters.CallsCancelled->inc();
    if (Reg.enabled())
      Reg.emit({Sim.now(), EventKind::CallCancelled, Node,
                R.Tag, S, 0, {}});
    if (CallCancelHook)
      CallCancelHook(R.Tag, S);
    completeCall(R, S, /*NoReply=*/false, /*FlushReply=*/true,
                 ReplyStatus::Unavailable, 0, {}, core::reasons::Cancelled);
    R.Cancelled.insert(S);
  }
}

void StreamTransport::completeCall(ReceiverStream &R, Seq S, bool NoReply,
                                   bool FlushReply, ReplyStatus St,
                                   uint32_t ExTag, wire::Bytes Payload,
                                   std::string Reason) {
  if (R.Broken)
    return; // The break already told the sender everything it will learn.
  assert(S > R.CompletedThrough && !R.DoneAhead.contains(S) &&
         "call completed twice");
  // Sends omit normal replies (paper, Section 2); everything else — and
  // exceptional sends — produce an explicit reply.
  std::optional<WireReply> W;
  if (!(NoReply && St == ReplyStatus::Normal)) {
    W.emplace();
    W->S = S;
    W->Status = St;
    W->ExTag = ExTag;
    W->Payload = std::move(Payload);
    W->Reason = std::move(Reason);
  }
  R.DoneAhead.insert(S, std::move(W));
  if (FlushReply)
    R.FlushWhenCompleted = std::max(R.FlushWhenCompleted, S);
  // CompletedThrough is the *contiguous* executed prefix; with in-order
  // execution (the default) the map holds exactly one entry here.
  while (!R.DoneAhead.empty() &&
         R.DoneAhead.firstSeq() == R.CompletedThrough + 1) {
    Seq Next = R.DoneAhead.firstSeq();
    auto Entry = std::move(R.DoneAhead.at(Next));
    R.DoneAhead.erase(Next);
    R.CompletedThrough = Next;
    if (Entry)
      R.UnackedReplies.insert(R.CompletedThrough, std::move(*Entry));
  }
  bool WantFlush = (R.FlushWhenCompleted != 0 &&
                    R.CompletedThrough >= R.FlushWhenCompleted) ||
                   R.CompletedThrough <= R.FlushThrough;
  if (R.FlushWhenCompleted != 0 &&
      R.CompletedThrough >= R.FlushWhenCompleted)
    R.FlushWhenCompleted = 0;
  if (R.CompletedThrough > R.LastSentCompleted &&
      (WantFlush ||
       R.CompletedThrough - R.LastSentCompleted >= Cfg.MaxReplyBatch)) {
    sendReplyBatch(R);
    return;
  }
  if (R.CompletedThrough > R.LastSentCompleted ||
      !R.UnackedReplies.empty())
    armReplyFlushTimer(R);
}

void StreamTransport::sendReplyBatch(ReceiverStream &R, bool ResendAll) {
  if (Dead)
    return;
  ReplyBatchMsg M;
  M.Agent = R.Agent;
  M.Group = R.Group;
  M.Inc = R.Inc;
  M.AckCallThrough = R.NextExpected - 1;
  M.CompletedThrough = R.CompletedThrough;
  M.Broken = R.Broken;
  M.BreakIsFailure = R.BrokenIsFailure;
  M.BreakReason = R.BreakReason;
  // Normal batches are deltas (replies never sent before); recovery
  // batches — responses to a flush/probe, and break notices — carry the
  // full unacknowledged state so a stalled sender always catches up.
  bool All = ResendAll || Cfg.StateShapedReplies;
  R.UnackedReplies.forEach([&](Seq S, const WireReply &W) {
    if (All || S > R.LastBatchedReply)
      M.Replies.push_back(W);
  });
  if (!R.UnackedReplies.empty())
    R.LastBatchedReply = std::max(R.LastBatchedReply,
                                  R.UnackedReplies.lastSeq());
  R.LastSentCompleted = R.CompletedThrough;
  R.LastSentAck = R.NextExpected - 1;
  R.NeedAck = false;
  if (R.ReplyFlushTimerArmed) {
    Sim.cancel(R.ReplyFlushTimer);
    R.ReplyFlushTimerArmed = false;
  }
  if (R.AckTimerArmed) {
    Sim.cancel(R.AckTimer);
    R.AckTimerArmed = false;
  }
  Counters.ReplyBatchesSent->inc();
  Counters.ReplyOccupancy->observe(static_cast<double>(M.Replies.size()));
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::ReplyBatchTx, Node, R.Tag,
              M.Replies.size(), 0, {}});
  sendMessage(R.SenderAddr, Message(std::move(M)));
}

void StreamTransport::armReplyFlushTimer(ReceiverStream &R) {
  if (R.ReplyFlushTimerArmed || Dead)
    return;
  R.ReplyFlushTimerArmed = true;
  R.ReplyFlushTimer =
      Sim.schedule(Cfg.ReplyFlushInterval, [this, &R] {
        R.ReplyFlushTimerArmed = false;
        if (Dead)
          return;
        if (R.CompletedThrough > R.LastSentCompleted ||
            !R.UnackedReplies.empty())
          sendReplyBatch(R);
      });
}

void StreamTransport::armReceiverAckTimer(ReceiverStream &R) {
  if (R.AckTimerArmed || R.ReplyFlushTimerArmed || Dead)
    return;
  R.AckTimerArmed = true;
  R.AckTimer = Sim.schedule(Cfg.AckDelay, [this, &R] {
    R.AckTimerArmed = false;
    if (Dead)
      return;
    if (R.NextExpected - 1 > R.LastSentAck || R.NeedAck)
      sendReplyBatch(R);
  });
}

bool StreamTransport::isReceiverBroken(uint64_t StreamTag) const {
  auto It = ReceiversByTag.find(StreamTag);
  if (It == ReceiversByTag.end())
    return true; // Superseded by a newer incarnation: equally dead.
  return It->second->Broken;
}

void StreamTransport::breakReceiverStream(uint64_t StreamTag,
                                          std::string Reason,
                                          bool IsFailure) {
  auto It = ReceiversByTag.find(StreamTag);
  if (It == ReceiversByTag.end())
    return;
  ReceiverStream &R = *It->second;
  if (R.Broken)
    return;
  Counters.ReceiverBreaks->inc();
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::ReceiverBreak, Node,
              StreamTag, 0, 0, Reason});
  R.Broken = true;
  R.BrokenIsFailure = IsFailure;
  R.BreakReason = std::move(Reason);
  R.Future.clear(); // Undelivered calls are discarded.
  sendReplyBatch(R, /*ResendAll=*/true);
  if (StreamDeadHook)
    StreamDeadHook(R.Tag);
}

//===----------------------------------------------------------------------===//
// Datagram dispatch
//===----------------------------------------------------------------------===//

void StreamTransport::sendMessage(const net::Address &To, const Message &M) {
  Net.send(Addr, To, encodeFramedMessage(M, Cfg.FrameChecksums));
}

void StreamTransport::onDatagram(net::Datagram D) {
  if (Dead)
    return;
  // Integrity first: no byte of the payload is decoded until the frame
  // header checks out and (unless the ablation knob disabled it) the
  // checksum matches. A rejected frame is indistinguishable from a lost
  // datagram — the retransmit path recovers it.
  // Tolerant of trailing bytes: real datagram stacks can pad past the
  // sender's length, so excess beyond the declared frame is dropped and
  // counted rather than rejecting the (intact) frame in front of it.
  wire::FrameError FE = wire::FrameError::None;
  size_t Trailing = 0;
  std::optional<wire::Bytes> Payload =
      wire::openFrame(D.Payload, Cfg.FrameChecksums, &FE, &Trailing);
  if (Trailing != 0)
    Counters.FramesTrailingBytes->inc(Trailing);
  if (!Payload) {
    Counters.FramesCorruptDropped->inc();
    if (Reg.enabled())
      Reg.emit({Sim.now(), EventKind::FrameCorruptDropped, Node,
                Addr.Port, D.Payload.size(), 0, wire::frameErrorName(FE)});
    return;
  }
  std::optional<Message> M = decodeMessage(*Payload);
  if (!M) {
    // The frame was intact, so the bytes are what the sender produced —
    // an undecodable message here is a local encode bug, not line noise.
    // Count and trace it distinctly; the chaos invariants treat any
    // occurrence as a violation.
    Counters.MalformedDropped->inc();
    if (Reg.enabled())
      Reg.emit({Sim.now(), EventKind::FrameCorruptDropped, Node,
                Addr.Port, Payload->size(), 0, "malformed message"});
    return;
  }
  if (auto *CB = std::get_if<CallBatchMsg>(&*M))
    handleCallBatch(D.From, *CB);
  else if (auto *RB = std::get_if<ReplyBatchMsg>(&*M))
    handleReplyBatch(D.From, *RB);
  else
    handleCancel(D.From, std::get<CancelMsg>(*M));
}
