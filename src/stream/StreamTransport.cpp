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
/// Frames the \p PayloadSize bytes \p Write encodes, sealing in place:
/// with an exact size the whole frame is one allocation. Aborts (in every
/// build mode) rather than transmit garbage.
template <typename WriteFn>
wire::Bytes sealEncoded(size_t PayloadSize, WriteFn &&Write) {
  wire::Encoder E;
  wire::beginFrame(E, PayloadSize);
  Write(E);
  PROMISES_CHECK(!E.failed(), "stream messages must always encode");
  wire::Bytes Frame = wire::finishFrame(E);
  PROMISES_CHECK(!E.failed(), "stream message exceeds the frame limit");
  return Frame;
}

/// Seals a batch of \p Kind: header \p H, then the elements \p Visit
/// passes to its callback, in order, behind a u32 count — the layout
/// Codec<std::vector<Elem>> gives a built message's sequence. A first
/// pass over the elements sizes the frame.
template <typename Elem, typename Header, typename VisitFn>
wire::Bytes sealBatch(MessageKind Kind, const Header &H, VisitFn &&Visit) {
  uint32_t Count = 0;
  size_t Size = 1 + wire::Codec<Header>::size(H) + 4;
  Visit([&](const Elem &X) {
    ++Count;
    Size += wire::Codec<Elem>::size(X);
  });
  return sealEncoded(Size, [&](wire::Encoder &E) {
    E.writeU8(static_cast<uint8_t>(Kind));
    wire::Codec<Header>::encode(E, H);
    E.writeU32(Count);
    Visit([&](const Elem &X) { wire::Codec<Elem>::encode(E, X); });
  });
}

MessageKind kindOf(const Message &M) {
  return static_cast<MessageKind>(M.index() + 1);
}

void writeMessage(wire::Encoder &E, const Message &M) {
  E.writeU8(static_cast<uint8_t>(kindOf(M)));
  std::visit(
      [&E](const auto &Msg) {
        wire::Codec<std::decay_t<decltype(Msg)>>::encode(E, Msg);
      },
      M);
}

size_t messageSizeOf(const Message &M) {
  return 1 + std::visit(
                 [](const auto &Msg) {
                   return wire::Codec<std::decay_t<decltype(Msg)>>::size(Msg);
                 },
                 M);
}

/// Copies of a decoded call or reply that own their bytes.
CallReq owned(const CallReqView &C) {
  return {C.S,          C.Port, C.NoReply, C.FlushReply,
          C.DeadlineNs, wire::Bytes(C.Args.begin(), C.Args.end())};
}
WireReply owned(const WireReplyView &R) {
  return {R.S, R.Status, R.ExTag,
          wire::Bytes(R.Payload.begin(), R.Payload.end()),
          std::string(R.Reason)};
}
} // namespace

wire::Bytes promises::stream::encodeMessage(const Message &M) {
  wire::Encoder E;
  E.reserve(messageSizeOf(M));
  writeMessage(E, M);
  PROMISES_CHECK(!E.failed(), "stream messages must always encode");
  return E.take();
}

wire::Bytes promises::stream::encodeFramedMessage(const Message &M) {
  return sealEncoded(messageSizeOf(M),
                     [&M](wire::Encoder &E) { writeMessage(E, M); });
}

wire::Bytes promises::stream::encodeFramedCallBatch(
    const CallBatchHeader &H, const SeqRing<CallReq> &Window, Seq From,
    Seq Through) {
  return sealBatch<CallReq>(MessageKind::CallBatch, H, [&](auto &&Emit) {
    for (Seq Q = From; Q <= Through; ++Q) {
      const CallReq *C = Window.find(Q);
      PROMISES_CHECK(C != nullptr, "call missing from window");
      Emit(*C);
    }
  });
}

wire::Bytes promises::stream::encodeFramedReplyBatch(
    const ReplyBatchHeader &H, const SeqRing<WireReply> &Unacked,
    Seq After) {
  return sealBatch<WireReply>(MessageKind::ReplyBatch, H, [&](auto &&Emit) {
    Unacked.forEach([&](Seq S, const WireReply &W) {
      if (S > After)
        Emit(W);
    });
  });
}

std::optional<MessageKind>
promises::stream::decodeMessage(wire::ByteView B, MessageBuffers &Into) {
  wire::Decoder D(B);
  auto Kind = static_cast<MessageKind>(D.readU8());
  switch (Kind) {
  case MessageKind::CallBatch:
    wire::Codec<CallBatchView>::decode(D, Into.Calls);
    break;
  case MessageKind::ReplyBatch:
    wire::Codec<ReplyBatchView>::decode(D, Into.Replies);
    break;
  case MessageKind::Cancel:
    wire::Codec<CancelMsg>::decode(D, Into.Cancel);
    break;
  default:
    return std::nullopt;
  }
  if (D.failed() || !D.atEnd())
    return std::nullopt;
  return Kind;
}

std::optional<Message> promises::stream::decodeMessage(wire::ByteView B) {
  MessageBuffers M;
  std::optional<MessageKind> Kind = decodeMessage(B, M);
  if (!Kind)
    return std::nullopt;
  switch (*Kind) {
  case MessageKind::CallBatch: {
    CallBatchMsg Out;
    static_cast<CallBatchHeader &>(Out) = M.Calls;
    for (const CallReqView &C : M.Calls.Calls)
      Out.Calls.push_back(owned(C));
    return Message(std::move(Out));
  }
  case MessageKind::ReplyBatch: {
    ReplyBatchMsg Out;
    static_cast<ReplyBatchHeader &>(Out) = M.Replies;
    for (const WireReplyView &R : M.Replies.Replies)
      Out.Replies.push_back(owned(R));
    return Message(std::move(Out));
  }
  case MessageKind::Cancel:
    return Message(std::move(M.Cancel));
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

StreamTransport::StreamTransport(net::Network &Net, net::NodeId Node,
                                 StreamConfig Cfg)
    : Net(Net), Sim(Net.simulation()), Node(Node),
      Reg(Sim.metrics()), Cfg(Cfg) {
  Addr = Net.bind(Node, [this](net::Datagram D) { onDatagram(std::move(D)); });
  Net.onCrash(Node, [this] { shutdown(); });
  // (node, epoch, port) identifies this transport even with several per
  // node, and apart from the node's earlier incarnations, which reused
  // its port numbers.
  MetricLabels L{{"node", Net.nodeName(Node)},
                 {"epoch", strprintf("%u", Addr.Epoch)},
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
                 {"epoch", strprintf("%u", Addr.Epoch)},
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
  // Settle and wake order is scheduling-visible: callbacks run and
  // blocked processes resume in the order the streams are visited, so
  // visit them in (agent, remote, group) order, not the hash table's.
  std::vector<SenderTable::value_type *> Order;
  Order.reserve(Senders.size());
  for (SenderTable::value_type &E : Senders)
    Order.push_back(&E);
  std::sort(Order.begin(), Order.end(),
            [](const auto *A, const auto *B) { return A->first < B->first; });
  for (SenderTable::value_type *E : Order) {
    SenderStream &S = E->second;
    Sim.cancel(S.B.ProbeTimer);
    Sim.cancel(S.FlushTimer);
    Sim.cancel(S.RetransTimer);
    Sim.cancel(S.AckTimer);
    // No claim may wait on a dead transport: every outstanding call
    // settles now, in call order, and the next synch reports why.
    if (!S.Slots.empty()) {
      ReplyOutcome Down =
          ReplyOutcome::unavailable(core::reasons::TransportShutDown);
      S.BreakSinceMark = true;
      S.BreakSinceMarkIsFailure = false;
      S.BreakSinceMarkReason = Down.Reason;
      while (!S.Slots.empty()) {
        Seq First = S.Slots.firstSeq();
        S.FulfilledThrough = First;
        Counters.CallsBroken->inc();
        ReplyCallback Cb = std::move(S.Slots.at(First).Cb);
        S.Slots.erase(First);
        if (Settle && Cb)
          Cb(Down);
      }
    }
    // Processes blocked in synch or on a full window must not hang on a
    // dead transport.
    S.FulfillQ.notifyAll();
    S.WindowCv.notifyAll();
  }
  for (auto &[K, R] : Receivers) {
    Sim.cancel(R.ReplyFlushTimer);
    Sim.cancel(R.AckTimer);
  }
}

//===----------------------------------------------------------------------===//
// Sender side
//===----------------------------------------------------------------------===//

StreamTransport::SenderStream *
StreamTransport::findSender(const SenderKey &K) const {
  if (!LastSender || LastSender->first != K) {
    auto It = Senders.find(K);
    if (It == Senders.end())
      return nullptr;
    LastSender = const_cast<SenderTable::value_type *>(&*It);
  }
  return &LastSender->second;
}

StreamTransport::SenderStream &StreamTransport::sender(const SenderKey &K) {
  if (!LastSender || LastSender->first != K)
    LastSender = &*Senders.try_emplace(K, Sim, K).first;
  return LastSender->second;
}

size_t StreamTransport::senderStreamCount() const { return Senders.size(); }

size_t StreamTransport::receiverStreamCount() const {
  return Receivers.size();
}

bool StreamTransport::windowFull(const SenderStream &S) const {
  return (Cfg.MaxInFlightCalls > 0 &&
          S.Window.size() >= Cfg.MaxInFlightCalls) ||
         (Cfg.MaxInFlightBytes > 0 && S.WindowBytes >= Cfg.MaxInFlightBytes);
}

void StreamTransport::blockForWindow(SenderStream &S) {
  sim::Time T0 = Sim.now();
  Counters.CallsBlocked->inc();
  Reg.emit(T0, EventKind::SenderBlocked, Node, S.Agent, S.Window.size());
  {
    // FIFO mutex + condition: blocked issuers reacquire in block order,
    // so window space is handed out in issue (= seq) order.
    sim::SimMutex::Guard G(S.WindowMx);
    while (!Dead && !S.Broken && windowFull(S))
      S.WindowCv.wait(S.WindowMx);
  }
  sim::Time Blocked = Sim.now() - T0;
  Counters.BlockTimeUs->observe(static_cast<double>(Blocked) / 1e3);
  Reg.emit(Sim.now(), EventKind::SenderUnblocked, Node, S.Agent,
           S.Window.size(), Blocked);
}

StreamTransport::IssueResult
StreamTransport::issueCall(AgentId Agent, net::Address Remote, GroupId Group,
                           PortId Port, wire::Bytes Args, bool NoReply,
                           bool IsRpc, ReplyCallback OnReply,
                           sim::Time DeadlineAt) {
  if (Dead)
    return {false, core::reasons::TransportShutDown};
  SenderStream &S = sender({Agent, Remote, Group});
  // Circuit breaker: a tripped endpoint fails fast before any stream state
  // is touched — no seq consumed, no datagram sent, no promise blocks.
  if (S.B.State != 0) {
    Counters.BreakerFastFails->inc();
    armBreakerProbe(S);
    return {false, core::reasons::CircuitOpen};
  }
  // Flow control: block (in issue order) until the in-flight window has
  // room. Only simulated processes can block; scheduler-context callers
  // (timers, tests poking the transport directly) bypass the limit. A
  // broken stream's window is empty, so it never blocks — the break
  // handling below decides what happens to the call.
  if ((Cfg.MaxInFlightCalls > 0 || Cfg.MaxInFlightBytes > 0) &&
      sim::Simulation::inProcess() && !S.Broken && windowFull(S)) {
    blockForWindow(S);
    if (Dead)
      return {false, core::reasons::TransportShutDown};
  }
  if (S.Broken)
    reincarnate(S);
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
  Reg.emit(Sim.now(), EventKind::CallIssued, Node, Agent, Sq);

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
  return {true, {}, Sq, S.Inc};
}

bool StreamTransport::cancelCall(AgentId Agent, net::Address Remote,
                                 GroupId Group, Seq Sq, Incarnation Inc) {
  if (Dead)
    return false;
  SenderStream *S = findSender({Agent, Remote, Group});
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
  Net.send(Addr, Remote, encodeFramedMessage(M));
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
  Sim.cancel(S.FlushTimer);
  armSenderRetransTimer(S);
}

void StreamTransport::sendCallBatch(SenderStream &S, Seq FromSeq,
                                    Seq ThroughSeq, bool FlushReplies,
                                    bool IsRetransmit) {
  CallBatchHeader H{S.Agent, S.Group, S.Inc, S.FulfilledThrough, FlushReplies};
  wire::Bytes Frame = encodeFramedCallBatch(H, S.Window, FromSeq, ThroughSeq);
  size_t Calls = ThroughSeq >= FromSeq ? ThroughSeq - FromSeq + 1 : 0;
  if (IsRetransmit) {
    Counters.Retransmissions->inc(Calls);
    Counters.RetransmitBatch->observe(static_cast<double>(Calls));
    size_t Bytes = 0;
    for (Seq Q = FromSeq; Q <= ThroughSeq; ++Q)
      Bytes += S.Window.at(Q).Args.size();
    Counters.RetransmittedBytes->inc(Bytes);
  }
  S.LastAckSent = S.FulfilledThrough;
  if (Calls == 0) {
    Counters.AckBatchesSent->inc();
  } else {
    Counters.CallBatchesSent->inc();
    if (!IsRetransmit)
      Counters.BatchOccupancy->observe(static_cast<double>(Calls));
  }
  Reg.emit(Sim.now(), EventKind::CallBatchTx, Node, S.Agent, Calls);
  Net.send(Addr, S.Remote, std::move(Frame));
}

void StreamTransport::armSenderFlushTimer(SenderStream &S) {
  if (Sim.pending(S.FlushTimer) || S.Broken)
    return;
  S.FlushTimer = Sim.schedule(Cfg.FlushInterval, [this, &S] {
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
  if (Sim.pending(S.RetransTimer) || S.Broken || Dead)
    return;
  sim::Time Base = S.CurrentRto ? S.CurrentRto : Cfg.RetransmitTimeout;
  sim::Time Delay = Base;
  // A fixed 10% jitter (see StreamConfig::RetransmitTimeout).
  auto Span = static_cast<uint64_t>(static_cast<double>(Base) * 0.1);
  if (Span > 0)
    Delay += static_cast<sim::Time>(RetransRng.below(Span + 1));
  S.RetransTimer = Sim.schedule(Delay, [this, &S] {
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
    breakSender(S, /*IsFailure=*/false, core::reasons::CannotCommunicate);
    // Only timeout breaks feed the circuit breaker: they are the
    // endpoint-unreachable signal. Receiver-reported breaks arrive in
    // reply batches, proving reachability.
    if (Cfg.BreakerThreshold > 0)
      breakerOnTimeoutBreak(S);
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
  if (Sim.pending(S.AckTimer) || S.Broken || Dead)
    return;
  S.AckTimer = Sim.schedule(Cfg.AckDelay, [this, &S] {
    if (Dead || S.Broken)
      return;
    if (S.LastAckSent < S.FulfilledThrough)
      sendCallBatch(S, 1, 0, /*FlushReplies=*/false, /*IsRetransmit=*/false);
  });
}

bool StreamTransport::handleReplyBatch(const net::Address &From,
                                       const ReplyBatchView &M) {
  SenderStream *S = findSender({M.Agent, From, M.Group});
  if (!S)
    return true;
  // Any reply batch proves the endpoint is reachable, so it closes an
  // open/half-open breaker — before the liveness checks below, because the
  // probed stream is typically broken.
  breakerOnReply(*S);
  if (S->Broken || M.Inc != S->Inc)
    return true;
  // A receiver speaks only of calls it was sent. Acking an untransmitted
  // call would drop it from the window it is still owed from, and
  // completing or answering an unissued one would wait on a slot that
  // does not exist: such a batch is forged or corrupt, and dropped whole.
  if (M.AckCallThrough > S->TransmittedThrough ||
      M.CompletedThrough >= S->NextSeq ||
      std::any_of(M.Replies.begin(), M.Replies.end(),
                  [&](const WireReplyView &R) { return R.S >= S->NextSeq; }))
    return false;

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

  // Detect a batch that carries nothing new (the receiver missed our ack —
  // re-ack immediately). Receivers seal replies in ascending seq order,
  // and fulfillInOrder consumes those straight from the frame; a batch in
  // any other order has every new reply parked first, as a copy, where
  // the first reply for a seq wins.
  bool InOrder = std::adjacent_find(M.Replies.begin(), M.Replies.end(),
                                    [](const WireReplyView &A,
                                       const WireReplyView &B) {
                                      return A.S >= B.S;
                                    }) == M.Replies.end();
  bool AnyNew = false;
  for (const WireReplyView &R : M.Replies) {
    if (R.S <= S->FulfilledThrough || S->PendingReplies.contains(R.S))
      continue;
    AnyNew = true;
    if (!InOrder)
      S->PendingReplies.insert(R.S, owned(R));
  }
  if (M.CompletedThrough > S->CompletedThroughMax) {
    S->CompletedThroughMax = M.CompletedThrough;
    AnyNew = true;
  }

  // Consume outcomes in order first (a synchronous break leaves calls up
  // to CompletedThrough unaffected), then apply the break to the rest.
  Seq Before = S->FulfilledThrough;
  fulfillInOrder(*S, InOrder ? std::span<const WireReplyView>(M.Replies)
                             : std::span<const WireReplyView>());
  if (M.Broken) {
    breakSender(*S, M.BreakIsFailure, M.BreakReason);
    return true;
  }
  if (!M.Replies.empty() && !AnyNew) {
    // Nothing new: the receiver missed our ack — repeat it immediately.
    sendCallBatch(*S, 1, 0, /*FlushReplies=*/false, /*IsRetransmit=*/false);
    return true;
  }
  if (S->FulfilledThrough > Before)
    armSenderAckTimer(*S);
  return true;
}

namespace {
/// What a reply's callback sees; its payload views \p W's bytes.
ReplyOutcome outcomeOf(const WireReplyView &W) {
  ReplyOutcome O;
  switch (W.Status) {
  case ReplyStatus::Normal:
    O.K = ReplyOutcome::Kind::Normal;
    O.Payload = W.Payload;
    break;
  case ReplyStatus::Exception:
    O.K = ReplyOutcome::Kind::Exception;
    O.ExTag = W.ExTag;
    O.Payload = W.Payload;
    break;
  case ReplyStatus::Failure:
    O.K = ReplyOutcome::Kind::Failure;
    O.Reason = W.Reason;
    break;
  case ReplyStatus::Unavailable:
    // Per-call unavailability (deadline expired, cancelled, shed): the
    // stream itself stays healthy.
    O.K = ReplyOutcome::Kind::Unavailable;
    O.Reason = W.Reason;
    break;
  }
  return O;
}
} // namespace

void StreamTransport::fulfillInOrder(SenderStream &S,
                                     std::span<const WireReplyView> Frame) {
  Incarnation Inc = S.Inc;
  size_t Cursor = 0; // Frame[Cursor] is the first reply not below Next.
  bool Progress = false;
  while (S.FulfilledThrough < S.CompletedThroughMax) {
    Seq Next = S.FulfilledThrough + 1;
    SenderStream::Slot *Slot = S.Slots.find(Next);
    PROMISES_CHECK(Slot != nullptr, "missing reply slot");
    while (Cursor != Frame.size() && Frame[Cursor].S < Next)
      ++Cursor;
    ReplyOutcome O;
    // A parked reply is consumed exactly once: it leaves the ring here and
    // its bytes live until its callback returns.
    WireReply Parked;
    if (WireReply *PR = S.PendingReplies.find(Next)) {
      Parked = std::move(*PR);
      S.PendingReplies.erase(Next);
      O = outcomeOf({Parked.S, Parked.Status, Parked.ExTag, Parked.Payload,
                     Parked.Reason});
    } else if (Cursor != Frame.size() && Frame[Cursor].S == Next) {
      O = outcomeOf(Frame[Cursor]);
    } else if (Slot->NoReply) {
      O.K = ReplyOutcome::Kind::Normal; // A send that completed normally.
    } else {
      break; // The explicit reply is still in flight; probes recover it.
    }
    S.FulfilledThrough = Next;
    Progress = true;
    Counters.CallsFulfilled->inc();
    sim::Time Lat = Sim.now() - Slot->IssuedAt;
    Counters.CallLatencyUs->observe(static_cast<double>(Lat) / 1e3);
    Reg.emit(Slot->IssuedAt, EventKind::CallSpan, Node, S.Agent, Next, Lat);
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
  // The rest of the frame's replies wait behind a gap and must outlive the
  // frame. A callback that broke or restarted the stream dropped them.
  if (!S.Broken && S.Inc == Inc)
    for (; Cursor != Frame.size(); ++Cursor)
      if (const WireReplyView &R = Frame[Cursor];
          R.S > S.FulfilledThrough && !S.PendingReplies.contains(R.S))
        S.PendingReplies.insert(R.S, owned(R));
  if (Progress)
    S.FulfillQ.notifyAll();
}

void StreamTransport::breakSender(SenderStream &S, bool IsFailure,
                                  std::string Reason) {
  if (S.Broken)
    return;
  Counters.SenderBreaks->inc();
  Reg.emit(Sim.now(), EventKind::SenderBreak, Node, S.Agent, S.Inc, 0, Reason);
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
  Sim.cancel(S.FlushTimer);
  Sim.cancel(S.RetransTimer);
  Sim.cancel(S.AckTimer);
  S.FulfillQ.notifyAll();
  // Issuers blocked on window space observe the break and decide between
  // reincarnation and failure when they resume.
  S.WindowCv.notifyAll();
}

void StreamTransport::reincarnate(SenderStream &S) {
  PROMISES_CHECK(S.Broken, "reincarnate of a live stream");
  Counters.Restarts->inc();
  Reg.emit(Sim.now(), EventKind::StreamRestart, Node, S.Agent,
           static_cast<uint64_t>(S.Inc) + 1);
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
  SenderStream *S = findSender({Agent, Remote, Group});
  if (!S || S->Broken)
    return;
  transmitNewCalls(*S, /*FlushReplies=*/true);
}

SynchResult StreamTransport::synch(AgentId Agent, net::Address Remote,
                                   GroupId Group) {
  assert(sim::Simulation::inProcess() &&
         "synch must be called from a simulated process");
  SenderStream &S = sender({Agent, Remote, Group});
  if (!S.Broken)
    transmitNewCalls(S, /*FlushReplies=*/true);
  while (!S.Broken && !Dead && S.outstanding() > 0)
    S.FulfillQ.wait();
  // A shutdown settled every outstanding call and set the break mark, so
  // a dead transport reports itself here.
  SynchResult Out;
  if (S.BreakSinceMark) {
    Out.K = S.BreakSinceMarkIsFailure ? SynchResult::Kind::Failure
                                      : SynchResult::Kind::Unavailable;
    Out.Reason = S.BreakSinceMarkReason;
  } else if (S.ExceptionSinceMark) {
    Out.K = SynchResult::Kind::ExceptionReply;
  }
  S.resetMark();
  return Out;
}

void StreamTransport::restart(AgentId Agent, net::Address Remote,
                              GroupId Group) {
  if (Dead)
    return;
  SenderStream &S = sender({Agent, Remote, Group});
  if (!S.Broken)
    breakSender(S, /*IsFailure=*/false, core::reasons::StreamRestarted);
  reincarnate(S);
}

bool StreamTransport::isBroken(AgentId Agent, net::Address Remote,
                               GroupId Group) const {
  const SenderStream *S = findSender({Agent, Remote, Group});
  return S && S->Broken;
}

size_t StreamTransport::armedTimerCount() const {
  size_t N = 0;
  for (const auto &[K, S] : Senders)
    N += Sim.pending(S.B.ProbeTimer) + Sim.pending(S.FlushTimer) +
         Sim.pending(S.RetransTimer) + Sim.pending(S.AckTimer);
  for (const auto &[K, R] : Receivers)
    N += Sim.pending(R.ReplyFlushTimer) + Sim.pending(R.AckTimer);
  return N;
}

size_t StreamTransport::senderWindowSize(AgentId Agent, net::Address Remote,
                                         GroupId Group) const {
  SenderStream *S = findSender({Agent, Remote, Group});
  return S ? S->Window.size() : 0;
}

//===----------------------------------------------------------------------===//
// Endpoint circuit breaker
//===----------------------------------------------------------------------===//

void StreamTransport::breakerOnTimeoutBreak(SenderStream &S) {
  Breaker &B = S.B;
  if (B.State != 0)
    return; // Already open; probes decide when to close.
  if (++B.Consecutive < Cfg.BreakerThreshold)
    return;
  B.State = 1;
  Counters.BreakerOpens->inc();
  Reg.emit(Sim.now(), EventKind::BreakerOpen, Node, S.Agent,
           static_cast<uint64_t>(B.Consecutive));
  armBreakerProbe(S);
}

void StreamTransport::breakerOnReply(SenderStream &S) {
  Breaker &B = S.B;
  // Any reply batch — even a break notice — proves reachability: reset
  // the consecutive-timeout count, and close the breaker if tripped.
  B.Consecutive = 0;
  if (B.State == 0)
    return;
  B.State = 0;
  Sim.cancel(B.ProbeTimer);
  Counters.BreakerCloses->inc();
  Reg.emit(Sim.now(), EventKind::BreakerClose, Node, S.Agent, 0);
}

void StreamTransport::armBreakerProbe(SenderStream &S) {
  if (Sim.pending(S.B.ProbeTimer) || Dead)
    return;
  // The timer fires exactly once (rearmed only by the next fail-fast), so
  // an unreachable endpoint cannot keep the event queue alive forever.
  S.B.ProbeTimer = Sim.schedule(Cfg.BreakerCooldown, [this, &S] {
    if (Dead || S.B.State == 0)
      return;
    sendBreakerProbe(S);
  });
}

void StreamTransport::sendBreakerProbe(SenderStream &S) {
  S.B.State = 2; // Half-open: one probe in flight, any reply closes.
  Counters.BreakerProbes->inc();
  // Probe at the stream's current incarnation so the receiver's
  // stale-incarnation filter lets it through.
  CallBatchHeader H{S.Agent, S.Group, S.Inc, 0, /*FlushReplies=*/true};
  Counters.AckBatchesSent->inc();
  Net.send(Addr, S.Remote, encodeFramedCallBatch(H, {}, 1, 0));
}

int StreamTransport::breakerState(AgentId Agent, net::Address Remote,
                                  GroupId Group) const {
  const SenderStream *S = findSender({Agent, Remote, Group});
  return S ? S->B.State : 0;
}

size_t StreamTransport::openBreakerCount() const {
  size_t N = 0;
  for (const auto &[K, S] : Senders)
    N += S.B.State != 0;
  return N;
}

Seq StreamTransport::outstandingCalls(AgentId Agent, net::Address Remote,
                                      GroupId Group) const {
  SenderStream *S = findSender({Agent, Remote, Group});
  return S ? S->outstanding() : 0;
}

//===----------------------------------------------------------------------===//
// Receiver side
//===----------------------------------------------------------------------===//

StreamTransport::ReceiverStream *
StreamTransport::receiverFor(const net::Address &From,
                             const CallBatchHeader &M) {
  auto [It, Fresh] = Receivers.try_emplace({From, M.Agent, M.Group});
  ReceiverStream &R = It->second;
  if (!Fresh) {
    if (M.Inc == R.Inc)
      return &R;
    if (M.Inc < R.Inc)
      return nullptr; // A stale incarnation: drop before touching state.
    // A newer incarnation supersedes the old one, which is dead: its tag
    // leaves the index, so its completions are dropped, and its timers
    // are cancelled before the record is reset for the new incarnation.
    Sim.cancel(R.ReplyFlushTimer);
    Sim.cancel(R.AckTimer);
    ReceiversByTag[R.Tag - 1] = nullptr;
    Reg.emit(Sim.now(), EventKind::StreamSuperseded, Node, R.Tag, M.Inc);
    if (StreamDeadHook)
      StreamDeadHook(R.Tag); // Orphaned executions get destroyed.
    R = ReceiverStream();
  }
  ReceiversByTag.push_back(&R);
  R.Tag = ReceiversByTag.size();
  R.SenderAddr = From;
  R.Agent = M.Agent;
  R.Group = M.Group;
  R.Inc = M.Inc;
  return &R;
}

bool StreamTransport::handleCallBatch(const net::Address &From,
                                      CallBatchView &M,
                                      wire::Bytes &Datagram) {
  ReceiverStream *RP = receiverFor(From, M);
  if (!RP)
    return true;
  ReceiverStream &R = *RP;

  if (R.Broken) {
    // "Further calls on that stream will be discarded" — but keep telling
    // the sender about the break until it learns.
    sendReplyBatch(R, /*ResendAll=*/true);
    return true;
  }

  // The sender has consumed replies through AckReplyThrough.
  while (!R.UnackedReplies.empty() &&
         R.UnackedReplies.firstSeq() <= M.AckReplyThrough)
    R.UnackedReplies.erase(R.UnackedReplies.firstSeq());

  bool SawDuplicate = false;
  bool Whole = true;
  // The kept calls' arguments stay in the datagram's buffer, which the
  // first call with argument bytes moves into a shared frame: moving the
  // vector keeps its buffer, so the decoded slices stay valid.
  std::shared_ptr<const wire::Bytes> Frame;
  for (CallReqView &C : M.Calls) {
    if (C.S < R.NextExpected || R.Future.contains(C.S)) {
      Counters.DuplicateCallsDropped->inc();
      SawDuplicate = true;
      continue;
    }
    // The window spans every seq it holds, so a seq this far ahead would
    // make it allocate for the whole gap: no sender has that many calls in
    // flight. Treat the call as lost; a real sender retransmits it.
    if (C.S - R.NextExpected >= wire::MaxSequenceElems) {
      Whole = false;
      continue;
    }
    if (!C.Args.empty()) {
      if (!Frame)
        Frame = std::make_shared<wire::Bytes>(std::move(Datagram));
      C.Args.Frame = Frame;
    }
    R.Future.insert(C.S, std::move(C));
  }
  deliverReadyCalls(R);

  if (M.FlushReplies) {
    R.FlushThrough = std::max(R.FlushThrough, R.NextExpected - 1);
    // The ack / probe response: resend everything unacknowledged so a
    // sender stalled by a lost reply batch always recovers.
    sendReplyBatch(R, /*ResendAll=*/true);
    return Whole;
  }
  if (SawDuplicate)
    R.NeedAck = true;
  if (R.NextExpected - 1 > R.LastSentAck || R.NeedAck)
    armReceiverAckTimer(R);
  return Whole;
}

void StreamTransport::deliverReadyCalls(ReceiverStream &R) {
  if (!CallSink)
    return;
  while (!R.Future.empty() && R.Future.firstSeq() == R.NextExpected) {
    CallReqView C = std::move(R.Future.at(R.NextExpected));
    R.Future.erase(R.NextExpected);
    ++R.NextExpected;
    if (R.Cancelled.count(C.S)) {
      // Cancelled before delivery: never reaches user code, but still
      // completes (as cancelled) through the reply path so the sender's
      // accounting is conserved.
      Counters.CallsCancelled->inc();
      Reg.emit(Sim.now(), EventKind::CallCancelled, Node, R.Tag, C.S);
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
    IC.Complete.T = this;
    IC.Complete.Tag = R.Tag;
    IC.Complete.S = C.S;
    IC.Complete.NoReply = C.NoReply;
    IC.Complete.FlushReply = C.FlushReply;
    CallSink(std::move(IC));
  }
}

void CallCompletion::operator()(ReplyStatus St, uint32_t ExTag,
                                wire::Bytes Payload,
                                std::string Reason) const {
  assert(T && "completing a call no transport delivered");
  if (T->Dead)
    return;
  StreamTransport::ReceiverStream *R = T->receiverByTag(Tag);
  if (!R)
    return; // Superseded incarnation.
  if (R->Cancelled.count(S))
    return; // Already completed as cancelled; the call process was killed
            // but unwound late (critical section).
  T->completeCall(*R, S, NoReply, FlushReply, St, ExTag, std::move(Payload),
                  std::move(Reason));
}

bool StreamTransport::handleCancel(const net::Address &From,
                                   const CancelMsg &M) {
  auto It = Receivers.find({From, M.Agent, M.Group});
  if (It == Receivers.end())
    return true;
  ReceiverStream &R = It->second;
  if (R.Broken || R.Inc != M.Inc)
    return true;
  bool Whole = true;
  for (Seq S : M.Seqs) {
    if (S >= R.NextExpected) {
      // No sender has a call this far ahead in flight, and a kept seq
      // stays until delivery reaches it: bounded as calls are.
      if (S - R.NextExpected >= wire::MaxSequenceElems) {
        Whole = false;
        continue;
      }
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
    Reg.emit(Sim.now(), EventKind::CallCancelled, Node, R.Tag, S);
    if (CallCancelHook)
      CallCancelHook(R.Tag, S);
    completeCall(R, S, /*NoReply=*/false, /*FlushReply=*/true,
                 ReplyStatus::Unavailable, 0, {}, core::reasons::Cancelled);
    R.Cancelled.insert(S);
  }
  return Whole;
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
  ReplyBatchHeader H{R.Agent,
                     R.Group,
                     R.Inc,
                     R.NextExpected - 1,
                     R.CompletedThrough,
                     R.Broken,
                     R.BrokenIsFailure,
                     R.BreakReason};
  // Normal batches are deltas (replies never sent before); recovery
  // batches — responses to a flush/probe, and break notices — carry the
  // full unacknowledged state so a stalled sender always catches up.
  bool All = ResendAll || Cfg.StateShapedReplies;
  Seq After = All ? 0 : R.LastBatchedReply;
  wire::Bytes Frame = encodeFramedReplyBatch(H, R.UnackedReplies, After);
  size_t Replies = 0;
  R.UnackedReplies.forEach(
      [&](Seq S, const WireReply &) { Replies += S > After; });
  if (!R.UnackedReplies.empty())
    R.LastBatchedReply = std::max(R.LastBatchedReply,
                                  R.UnackedReplies.lastSeq());
  R.LastSentCompleted = R.CompletedThrough;
  R.LastSentAck = R.NextExpected - 1;
  R.NeedAck = false;
  Sim.cancel(R.ReplyFlushTimer);
  Sim.cancel(R.AckTimer);
  Counters.ReplyBatchesSent->inc();
  Counters.ReplyOccupancy->observe(static_cast<double>(Replies));
  Reg.emit(Sim.now(), EventKind::ReplyBatchTx, Node, R.Tag, Replies);
  Net.send(Addr, R.SenderAddr, std::move(Frame));
}

void StreamTransport::armReplyFlushTimer(ReceiverStream &R) {
  if (Sim.pending(R.ReplyFlushTimer) || Dead)
    return;
  R.ReplyFlushTimer = Sim.schedule(Cfg.ReplyFlushInterval, [this, &R] {
    if (Dead)
      return;
    if (R.CompletedThrough > R.LastSentCompleted || !R.UnackedReplies.empty())
      sendReplyBatch(R);
  });
}

void StreamTransport::armReceiverAckTimer(ReceiverStream &R) {
  if (Sim.pending(R.AckTimer) || Sim.pending(R.ReplyFlushTimer) || Dead)
    return;
  R.AckTimer = Sim.schedule(Cfg.AckDelay, [this, &R] {
    if (Dead)
      return;
    if (R.NextExpected - 1 > R.LastSentAck || R.NeedAck)
      sendReplyBatch(R);
  });
}

bool StreamTransport::isReceiverBroken(uint64_t StreamTag) const {
  const ReceiverStream *R = receiverByTag(StreamTag);
  // A superseded incarnation is equally dead.
  return !R || R->Broken;
}

void StreamTransport::breakReceiverStream(uint64_t StreamTag,
                                          std::string Reason,
                                          bool IsFailure) {
  ReceiverStream *RP = receiverByTag(StreamTag);
  if (!RP || RP->Broken)
    return;
  ReceiverStream &R = *RP;
  Counters.ReceiverBreaks->inc();
  Reg.emit(Sim.now(), EventKind::ReceiverBreak, Node, StreamTag, 0, 0, Reason);
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

void StreamTransport::onDatagram(net::Datagram D) {
  if (Dead)
    return;
  // Integrity first: no byte of the payload is decoded until the frame
  // header checks out and the checksum matches. A rejected frame is
  // indistinguishable from a lost datagram — the retransmit path recovers
  // it.
  // Tolerant of trailing bytes: real datagram stacks can pad past the
  // sender's length, so excess beyond the declared frame is dropped and
  // counted rather than rejecting the (intact) frame in front of it.
  // The payload is checked and decoded in place, inside D.Payload.
  wire::FrameError FE = wire::FrameError::None;
  size_t Trailing = 0;
  std::optional<wire::ByteView> Payload =
      wire::openFrame(D.Payload, &FE, &Trailing);
  if (Trailing != 0)
    Counters.FramesTrailingBytes->inc(Trailing);
  if (!Payload) {
    Counters.FramesCorruptDropped->inc();
    Reg.emit(Sim.now(), EventKind::FrameCorruptDropped, Node, Addr.Port,
             D.Payload.size(), 0, wire::frameErrorName(FE));
    return;
  }
  // The frame was intact, so the bytes are what the sender produced: an
  // undecodable message, or one that speaks of calls the stream never
  // sent, is a local encode bug or a forgery, not line noise.
  std::optional<MessageKind> Kind = decodeMessage(*Payload, Rx);
  if (!Kind) {
    dropMalformed(Payload->size());
    return;
  }
  bool Whole = true;
  switch (*Kind) {
  case MessageKind::CallBatch:
    Whole = handleCallBatch(D.From, Rx.Calls, D.Payload);
    break;
  case MessageKind::ReplyBatch:
    Whole = handleReplyBatch(D.From, Rx.Replies);
    break;
  case MessageKind::Cancel:
    Whole = handleCancel(D.From, Rx.Cancel);
    break;
  }
  if (!Whole)
    dropMalformed(Payload->size());
}

void StreamTransport::dropMalformed(size_t PayloadBytes) {
  // Counted and traced apart from corrupt frames; the chaos invariants
  // treat any occurrence as a violation.
  Counters.MalformedDropped->inc();
  Reg.emit(Sim.now(), EventKind::FrameCorruptDropped, Node, Addr.Port,
           PayloadBytes, 0, "malformed message");
}
