//===- promises/stream/StreamTransport.h - Call-stream layer ---*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call-stream communication mechanism of Section 2 of the paper (the
/// Mercury design, reference [14]), built on the unreliable datagram
/// network:
///
///  * A stream connects an *agent* (sending end) to a *port group*
///    (receiving end). All calls from one agent to ports in one group are
///    sequenced on one stream.
///  * Streams guarantee exactly-once, ordered delivery of call requests to
///    user code, and ordered consumption of replies, via sequence numbers,
///    retransmission, and deduplication.
///  * Stream calls and replies are *buffered* and sent in batches,
///    amortizing the per-message kernel overhead; RPCs flush immediately.
///  * When the guarantees cannot be kept (crash, partition, decode failure
///    at the receiver) the stream *breaks*: outstanding calls terminate
///    with `unavailable` (temporary) or `failure` (permanent), and the
///    sender may *restart* the stream, creating a new incarnation.
///  * `flush` expedites buffered traffic; `synch` additionally blocks until
///    all earlier calls complete and reports whether any terminated
///    exceptionally (the paper's exception_reply).
///
/// Loss recovery is sender-driven: the sender retransmits unacknowledged
/// calls and probes for missing replies; every reply batch from the
/// receiver carries its full unacknowledged-reply state (see Messages.h).
/// After StreamConfig::MaxRetries probe rounds without progress the sender
/// breaks the stream with `unavailable` — the system "tries hard", so
/// there is no point in the user retrying immediately (paper, Section 2).
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_STREAM_STREAMTRANSPORT_H
#define PROMISES_STREAM_STREAMTRANSPORT_H

#include "promises/core/Exceptions.h"
#include "promises/net/Network.h"
#include "promises/sim/Sync.h"
#include "promises/stream/Messages.h"
#include "promises/stream/SeqRing.h"
#include "promises/support/InlineFunction.h"
#include "promises/support/Metrics.h"
#include "promises/support/Rng.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace promises::stream {

/// Tuning knobs for one transport endpoint.
struct StreamConfig {
  /// Transmit a call batch once this many calls are buffered.
  size_t MaxBatchCalls = 16;
  /// ... or once the buffered argument bytes exceed this.
  size_t MaxBatchBytes = 4096;
  /// ... or once the oldest buffered call has waited this long.
  sim::Time FlushInterval = sim::msec(1);
  /// Receiver-side analogues for reply batching.
  size_t MaxReplyBatch = 16;
  sim::Time ReplyFlushInterval = sim::msec(1);
  /// Retransmit/probe cadence and the break threshold. RetransmitTimeout
  /// is the *base* cadence: every unproductive retransmit round multiplies
  /// the current timeout by RetransBackoff, capped at
  /// max(RetransmitTimeoutMax, RetransmitTimeout); any progress (or
  /// quiescence) resets it to the base. Each firing is additionally
  /// delayed by a deterministic jitter uniform in [0, timeout / 10],
  /// drawn from an Rng seeded with RetransSeed (xor'd with the endpoint
  /// identity), so synchronized senders do not retransmit in lockstep yet
  /// replays stay identical.
  sim::Time RetransmitTimeout = sim::msec(20);
  int MaxRetries = 8;
  double RetransBackoff = 2.0;
  sim::Time RetransmitTimeoutMax = sim::msec(160);
  uint64_t RetransSeed = 1;
  /// Sender-side flow control: issueCall blocks the calling process once
  /// this many calls (or argument bytes) are in flight — issued but not
  /// yet delivery-acknowledged — on one stream. 0 means unbounded (the
  /// pre-flow-control behavior). Blocked issuers resume in issue order as
  /// acknowledgements shrink the window; callers outside a simulated
  /// process cannot block and bypass the limit.
  size_t MaxInFlightCalls = 0;
  size_t MaxInFlightBytes = 0;
  /// Delay before a pure acknowledgement is sent (piggybacking window).
  sim::Time AckDelay = sim::msec(1);
  /// Ablation knob: when true, every reply batch carries the receiver's
  /// full unacknowledged-reply state (simplest-possible recovery) instead
  /// of only new replies. Correct but quadratic in flight-depth; see
  /// bench_ablation.
  bool StateShapedReplies = false;
  /// Endpoint circuit breaker: after this many consecutive
  /// communication-timeout breaks on one (agent, remote, group) stream,
  /// further issues fail fast with Unavailable{circuit open} — no promise
  /// blocks, nothing touches the network — until a half-open probe draws
  /// any reply batch from the remote. 0 disables (the default). Breaks
  /// caused by receiver-reported failures (decode errors) do not count:
  /// they prove the endpoint is reachable.
  int BreakerThreshold = 0;
  /// Delay between a breaker opening (or a fail-fast finding it open) and
  /// the next half-open probe.
  sim::Time BreakerCooldown = sim::msec(50);
};

/// Next retransmission timeout after an unproductive round: Cur * Factor,
/// saturated at Cap (and never below Cur). The product is compared against
/// the cap while still a double: after ~40 doublings of a 20ms base it
/// exceeds what uint64_t nanoseconds can hold, and casting such a value is
/// undefined behavior — in practice it wrapped to a tiny RTO, turning a
/// long-partitioned endpoint into a retransmit storm. Factors below 1 (and
/// NaN) are treated as 1.
inline sim::Time backoffRto(sim::Time Cur, double Factor, sim::Time Cap) {
  double Next = static_cast<double>(Cur) * std::max(1.0, Factor);
  if (!(Next < static_cast<double>(Cap)))
    return Cap;
  return static_cast<sim::Time>(Next);
}

/// The sender-visible outcome of one stream call, as its reply callback
/// sees it.
struct ReplyOutcome {
  enum class Kind : uint8_t {
    Normal,      ///< Payload holds encoded results.
    Exception,   ///< ExTag selects the declared exception; Payload holds
                 ///< its encoded arguments.
    Unavailable, ///< Built-in: temporary communication problem.
    Failure,     ///< Built-in: permanent problem.
  };
  Kind K = Kind::Normal;
  uint32_t ExTag = 0;
  /// Views the reply's bytes where they arrived: valid only during the
  /// callback. Decode it there, or copy it.
  wire::ByteView Payload;
  std::string Reason;

  static ReplyOutcome unavailable(std::string Why) {
    ReplyOutcome R;
    R.K = Kind::Unavailable;
    R.Reason = std::move(Why);
    return R;
  }
  static ReplyOutcome failure(std::string Why) {
    ReplyOutcome R;
    R.K = Kind::Failure;
    R.Reason = std::move(Why);
    return R;
  }
};

/// Invoked (in scheduler context, exactly once, in call order per stream)
/// when a call's outcome becomes known. Stored inline in the sender's
/// per-call slot: a typed call's callback captures 8-16 bytes.
using ReplyCallback = InlineFunction<void(const ReplyOutcome &)>;

class StreamTransport;

/// Completes one delivered call: a direct call into the transport that
/// delivered it, naming the call by (stream tag, seq). Completing a call
/// on a shut-down transport, a superseded stream incarnation, or after
/// the sender cancelled it is a no-op.
class CallCompletion {
public:
  void operator()(ReplyStatus St, uint32_t ExTag, wire::Bytes Payload,
                  std::string Reason) const;

private:
  friend class StreamTransport;
  StreamTransport *T = nullptr;
  uint64_t Tag = 0;
  Seq S = 0;
  bool NoReply = false;
  bool FlushReply = false;
};

/// A call delivered to the receiving entity's runtime.
struct IncomingCall {
  uint64_t StreamTag = 0; ///< Ordering domain: calls sharing a tag must
                          ///< appear to execute in CallSeq order (unless
                          ///< the runtime opted the group into parallel
                          ///< execution). Tags are dense: a transport
                          ///< tags the n-th receiver stream incarnation
                          ///< it opens n.
  Seq CallSeq = 0;
  GroupId Group = 0;
  PortId Port = 0;
  bool NoReply = false;
  sim::Time DeadlineNs = 0; ///< Absolute deadline from the wire; 0 = none.
  /// The encoded arguments, a slice of the frame they arrived in: holding
  /// the call keeps its frame alive.
  FrameSlice Args;
  /// The runtime must invoke this exactly once when the call completes.
  /// Out-of-order completions within a stream are buffered; the sender
  /// still observes outcomes in call order.
  CallCompletion Complete;
};

/// Result of synch (paper Section 2/3): AllNormal unless some call in the
/// synch window terminated exceptionally (synch "signals exception_reply")
/// or the stream broke (the break exception).
struct SynchResult {
  enum class Kind : uint8_t { AllNormal, ExceptionReply, Unavailable,
                              Failure };
  Kind K = Kind::AllNormal;
  std::string Reason;

  bool ok() const { return K == Kind::AllNormal; }

  /// Converts to an untyped exception for coenter arms (nullopt when ok).
  std::optional<core::Exn> toExn() const {
    switch (K) {
    case Kind::AllNormal:
      return std::nullopt;
    case Kind::ExceptionReply:
      return core::Exn{"exception_reply", Reason};
    case Kind::Unavailable:
      return core::Exn{"unavailable", Reason};
    case Kind::Failure:
      return core::Exn{"failure", Reason};
    }
    return std::nullopt;
  }
};

/// Traffic and event counters for one transport. A thin value view of the
/// registry-backed cells (see support/Metrics.h). At quiescence every
/// issued call has exactly one outcome, so
/// CallsIssued == CallsFulfilled + CallsBroken.
struct StreamCounters {
  uint64_t CallsIssued = 0;
  uint64_t CallBatchesSent = 0; ///< Batches that carried calls.
  uint64_t AckBatchesSent = 0;  ///< Empty batches (acks and probes).
  uint64_t ReplyBatchesSent = 0;
  uint64_t CallsDelivered = 0;
  uint64_t DuplicateCallsDropped = 0;
  uint64_t Retransmissions = 0; ///< Calls re-sent (not batches).
  uint64_t Probes = 0;
  uint64_t SenderBreaks = 0;
  uint64_t ReceiverBreaks = 0;
  uint64_t Restarts = 0;
  uint64_t CallsFulfilled = 0; ///< Outcomes delivered by reply processing.
  uint64_t CallsBroken = 0;    ///< Outcomes delivered by a stream break.
  uint64_t CallsBlocked = 0;   ///< Issuers that hit a full in-flight window.
  uint64_t RetransmittedBytes = 0; ///< Argument bytes re-sent.
  uint64_t CancelsSent = 0;        ///< Cancel messages sent (sender side).
  uint64_t CallsCancelled = 0;     ///< Calls completed as cancelled
                                   ///< (receiver side).
  uint64_t BreakerFastFails = 0;   ///< Issues failed fast by an open breaker.
  uint64_t BreakerOpens = 0;
  uint64_t BreakerCloses = 0;
  uint64_t BreakerProbes = 0;      ///< Half-open probes sent.
  uint64_t FramesCorruptDropped = 0; ///< Arriving frames rejected before
                                     ///< decode (checksum/header damage).
  uint64_t MalformedDropped = 0;     ///< Frame-valid datagrams whose message
                                     ///< failed to decode, or spoke of calls
                                     ///< the stream never sent or cannot
                                     ///< hold (see handleReplyBatch and
                                     ///< handleCallBatch); chaos treats any
                                     ///< as a violation.
  uint64_t FramesTrailingBytes = 0;  ///< Bytes beyond a frame's declared
                                     ///< length (datagram padding), dropped
                                     ///< before decode.
};

/// One entity's endpoint of the call-stream layer: the sending side of all
/// streams its agents open, and the receiving side of all streams that
/// target its port groups.
class StreamTransport {
public:
  /// Binds a fresh network endpoint on \p Node.
  StreamTransport(net::Network &Net, net::NodeId Node,
                  StreamConfig Cfg = StreamConfig());
  ~StreamTransport();
  StreamTransport(const StreamTransport &) = delete;
  StreamTransport &operator=(const StreamTransport &) = delete;

  net::Network &network() { return Net; }
  sim::Simulation &simulation() { return Sim; }
  net::Address address() const { return Addr; }
  net::NodeId nodeId() const { return Node; }
  const StreamConfig &config() const { return Cfg; }

  /// Installs the receiver-side sink. Runs in scheduler context; must not
  /// block (hand calls to processes instead).
  void setCallSink(std::function<void(IncomingCall)> Sink) {
    CallSink = std::move(Sink);
  }

  /// Installs a hook invoked when a receiver stream dies (breaks or is
  /// superseded by a newer incarnation). The runtime uses it to destroy
  /// orphaned call executions (paper, Section 4.2: the system "will find
  /// these computations and destroy them later"). May be invoked from the
  /// middle of one of the stream's own calls.
  void setStreamDeadHook(std::function<void(uint64_t StreamTag)> Hook) {
    StreamDeadHook = std::move(Hook);
  }

  /// Allocates a new agent (a sending end; paper: "agents identify
  /// activities").
  AgentId newAgent() { return ++LastAgent; }

  /// Outcome of issueCall: when Issued is false the call was never sent
  /// (shut-down transport or open circuit breaker) and OnReply was not
  /// retained — the caller raises unavailable(Reason) directly, without
  /// creating a promise (paper, Section 3, step 1). A broken stream is no
  /// refusal: the call reincarnates it ("restarted automatically"). On
  /// success S/Inc identify the call for cancelCall().
  struct IssueResult {
    bool Issued = true;
    std::string Reason;
    Seq S = 0;
    Incarnation Inc = 0;
  };

  /// Issues a call on the stream (Agent -> Remote transport's Group).
  /// \p NoReply marks a "send" (no normal result flows back); \p IsRpc
  /// flushes the request immediately and asks the receiver to flush the
  /// reply. \p OnReply fires exactly once, in call order per stream.
  /// \p DeadlineAt, when nonzero, is carried to the receiver, which drops
  /// the call with Unavailable{deadline expired} if execution has not
  /// started by that (absolute, virtual) time.
  IssueResult issueCall(AgentId Agent, net::Address Remote, GroupId Group,
                        PortId Port, wire::Bytes Args, bool NoReply,
                        bool IsRpc, ReplyCallback OnReply,
                        sim::Time DeadlineAt = 0);

  /// Best-effort cancellation of one outstanding call previously issued on
  /// the stream: sends a single (never retransmitted) cancel message. The
  /// receiver kills the call process if it is already executing, and in
  /// all cases completes the call with Unavailable{cancelled} through the
  /// normal reply path, so the promise fulfills in call order and every
  /// counter is conserved. Returns false when nothing was sent (unknown or
  /// broken stream, stale incarnation, or the outcome already arrived).
  bool cancelCall(AgentId Agent, net::Address Remote, GroupId Group, Seq S,
                  Incarnation Inc);

  /// Installs the hook invoked (in scheduler context) when a cancel
  /// message targets a call already handed to the runtime: the runtime
  /// kills the call's process via the orphan-destruction machinery; the
  /// transport then completes the call as cancelled.
  void setCallCancelHook(std::function<void(uint64_t StreamTag, Seq S)> Hook) {
    CallCancelHook = std::move(Hook);
  }

  /// Expedites buffered calls on the stream and asks the far side to flush
  /// replies (paper's `flush`). No-op on unknown/broken streams.
  void flush(AgentId Agent, net::Address Remote, GroupId Group);

  /// Paper's `synch`: flush, then block the calling process until every
  /// call issued so far on the stream has an outcome. Reports AllNormal /
  /// ExceptionReply for the window since the last synch point (a synch or
  /// an RPC); a break inside the window reports the break kind. Must be
  /// called from a simulated process.
  SynchResult synch(AgentId Agent, net::Address Remote, GroupId Group);

  /// Explicitly breaks (as if by the sender) and reincarnates the stream
  /// (paper's `restart`). Outstanding calls terminate with `unavailable`.
  void restart(AgentId Agent, net::Address Remote, GroupId Group);

  /// True if the sender side of the stream is currently broken (only
  /// observable between a break and the next call, which reincarnates it).
  bool isBroken(AgentId Agent, net::Address Remote, GroupId Group) const;

  /// Number of calls issued but without outcome on this stream.
  Seq outstandingCalls(AgentId Agent, net::Address Remote,
                       GroupId Group) const;

  /// Breaks the receiving side of the stream identified by \p StreamTag
  /// (paper: a decode failure at the receiver breaks the stream so that
  /// "further calls on that stream will be discarded"). Already-delivered
  /// calls still complete; their replies flow back with the break marker.
  void breakReceiverStream(uint64_t StreamTag, std::string Reason,
                           bool IsFailure = true);

  /// True if the receiving side of the stream identified by \p StreamTag
  /// is broken or superseded; the runtime discards gated calls on broken
  /// streams instead of executing them.
  bool isReceiverBroken(uint64_t StreamTag) const;

  /// Stops all activity (timers, sends, deliveries); called automatically
  /// when the node crashes. Every outstanding call settles at once, in
  /// call order per stream, with unavailable("transport shut down") and
  /// counts in CallsBroken, so no claim waits on a dead transport; the
  /// next synch on such a stream reports the shutdown. With \p Settle
  /// false the outstanding callbacks are dropped unrun instead (still
  /// counted): an owner tearing down passes it, because the callbacks may
  /// capture state that is already gone.
  void shutdown(bool Settle = true);

  bool isShutDown() const { return Dead; }

  /// Counter snapshot (thin view of the registry cells).
  StreamCounters counters() const;

  /// --- Test introspection ---
  /// Streams ever opened on each side, broken ones included: a stream's
  /// record lives as long as the transport.
  size_t senderStreamCount() const;
  size_t receiverStreamCount() const;
  /// Timers currently armed across all sender and receiver streams.
  size_t armedTimerCount() const;
  /// Calls in flight (issued but not delivery-acknowledged) on one stream;
  /// the quantity MaxInFlightCalls bounds.
  size_t senderWindowSize(AgentId Agent, net::Address Remote,
                          GroupId Group) const;
  /// Breaker state for one endpoint: 0 closed (or no breaker), 1 open,
  /// 2 half-open (probe sent, awaiting any reply).
  int breakerState(AgentId Agent, net::Address Remote, GroupId Group) const;
  /// Breakers currently not closed (what the breaker.state gauge reports).
  size_t openBreakerCount() const;

private:
  friend class CallCompletion;

  // Keys carry the full epoch-qualified address: streams to different
  // incarnations of a remote node never share state, so a post-restart
  // binding that reuses a port number cannot inherit (or corrupt) the
  // sequencing of a stream to the pre-crash incarnation.
  using SenderKey = std::tuple<AgentId, net::Address, GroupId>;
  using ReceiverKey = std::tuple<net::Address, AgentId, GroupId>;

  /// Hashes either key: each field word times its own odd constant,
  /// summed, with the high half folded onto the low, so keys that differ
  /// in any one field land in unrelated buckets.
  struct KeyHash {
    static size_t hash(AgentId A, const net::Address &R, GroupId G) {
      uint64_t H = A * 0x9e3779b97f4a7c15ull +
                   (uint64_t{R.Node} << 32 | R.Port) * 0xbf58476d1ce4e5b9ull +
                   (uint64_t{R.Epoch} << 32 | G) * 0x94d049bb133111ebull;
      return H ^ (H >> 32);
    }
    size_t operator()(const SenderKey &K) const {
      return hash(std::get<0>(K), std::get<1>(K), std::get<2>(K));
    }
    size_t operator()(const ReceiverKey &K) const {
      return hash(std::get<1>(K), std::get<0>(K), std::get<2>(K));
    }
  };

  /// Endpoint circuit breaker of one (agent, remote, group) stream.
  struct Breaker {
    int Consecutive = 0; ///< Timeout breaks since the last sign of life.
    uint8_t State = 0;   ///< 0 closed, 1 open, 2 half-open.
    uint64_t ProbeTimer = sim::NoEvent;
  };

  // Both stream records are complete here, ahead of the tables that hold
  // them by value: the standard lets only vector, list and forward_list
  // take an incomplete element type.

  /// Everything the sender keeps for one (agent, remote, group) stream,
  /// from its first call to the end of the transport. A break keeps the
  /// record, so isBroken() stays observable and the breaker stays
  /// tripped; the next call reincarnates it in place, so the incarnation
  /// only grows and the receiver's stale-incarnation filter stays sound.
  struct SenderStream {
    SenderStream(sim::Simulation &S, const SenderKey &K)
        : Agent(std::get<0>(K)), Remote(std::get<1>(K)),
          Group(std::get<2>(K)), FulfillQ(S), WindowMx(S), WindowCv(S) {}

    Incarnation Inc = 1;
    bool Broken = false;
    bool BrokenIsFailure = false;
    std::string BreakReason;
    // Synch-window bookkeeping (reset by synch or by an RPC's reply).
    bool ExceptionSinceMark = false;
    bool BreakSinceMark = false;
    bool BreakSinceMarkIsFailure = false;
    std::string BreakSinceMarkReason;

    AgentId Agent;
    net::Address Remote;
    GroupId Group;

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

    // Timers (event ids; sim::NoEvent when never armed).
    uint64_t FlushTimer = sim::NoEvent;
    uint64_t RetransTimer = sim::NoEvent;
    uint64_t AckTimer = sim::NoEvent;
    int Retries = 0;
    Seq LastProgressAcked = 0;
    Seq LastProgressFulfilled = 0;
    sim::Time CurrentRto = 0; ///< Backed-off retransmit timeout; 0 = base.

    sim::WaitQueue FulfillQ;  ///< synch waiters.
    sim::SimMutex WindowMx;   ///< Guards the window-space condition.
    sim::SimCondVar WindowCv; ///< Signalled when window space frees.
    Breaker B;

    void resetMark() {
      ExceptionSinceMark = false;
      BreakSinceMark = false;
      BreakSinceMarkIsFailure = false;
      BreakSinceMarkReason.clear();
    }
    Seq untransmittedCount() const { return NextSeq - 1 - TransmittedThrough; }
    Seq outstanding() const { return NextSeq - 1 - FulfilledThrough; }
  };

  /// Everything the receiver keeps for one (sender, agent, group) stream.
  /// A newer incarnation resets the record in place under a fresh tag.
  struct ReceiverStream {
    uint64_t Tag = 0;
    net::Address SenderAddr;
    AgentId Agent = 0;
    GroupId Group = 0;
    Incarnation Inc = 1;

    Seq NextExpected = 1;        ///< Next call seq to deliver to user code.
    SeqRing<CallReqView> Future; ///< Received ahead of order, each call
                                 ///< holding its frame.
    Seq CompletedThrough = 0;
    /// Calls executed beyond the contiguous prefix (only possible when the
    /// runtime opts a group into parallel execution); nullopt entries are
    /// normally-terminated sends with no explicit reply.
    SeqRing<std::optional<WireReply>> DoneAhead;
    SeqRing<WireReply> UnackedReplies;
    Seq FlushThrough = 0;       ///< Completions <= this flush immediately.
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

    uint64_t ReplyFlushTimer = sim::NoEvent;
    uint64_t AckTimer = sim::NoEvent;
  };

  /// Entries are never erased while the transport lives, and a rehash
  /// moves no entry, so pointers to them (the hot-path cache, timers)
  /// stay valid.
  using SenderTable = std::unordered_map<SenderKey, SenderStream, KeyHash>;
  using ReceiverTable =
      std::unordered_map<ReceiverKey, ReceiverStream, KeyHash>;

  /// The stream for \p K, or null. A one-entry cache makes the common
  /// call-the-same-stream-again case a single key compare.
  SenderStream *findSender(const SenderKey &K) const;
  /// The stream for \p K, opened if absent.
  SenderStream &sender(const SenderKey &K);

  void breakerOnTimeoutBreak(SenderStream &S);
  void breakerOnReply(SenderStream &S);
  void armBreakerProbe(SenderStream &S);
  void sendBreakerProbe(SenderStream &S);

  // Sender-side machinery.
  void transmitNewCalls(SenderStream &S, bool FlushReplies);
  void sendCallBatch(SenderStream &S, Seq FromSeq, Seq ThroughSeq,
                     bool FlushReplies, bool IsRetransmit);
  void retransmitWindow(SenderStream &S);
  void armSenderFlushTimer(SenderStream &S);
  void armSenderRetransTimer(SenderStream &S);
  void armSenderAckTimer(SenderStream &S);
  void onSenderRetransTimer(SenderStream &S);
  /// Applies a reply batch; false when it claims more than the stream
  /// sent, and was dropped.
  bool handleReplyBatch(const net::Address &From, const ReplyBatchView &M);
  /// Hands out every outcome now known, in call order: each reply comes
  /// from PendingReplies or else from \p Frame, the batch being handled
  /// (in ascending seq order). Replies in \p Frame that still wait behind
  /// a gap are parked in PendingReplies as copies.
  void fulfillInOrder(SenderStream &S, std::span<const WireReplyView> Frame);
  void breakSender(SenderStream &S, bool IsFailure, std::string Reason);
  void reincarnate(SenderStream &S);
  bool windowFull(const SenderStream &S) const;
  void blockForWindow(SenderStream &S);

  // Receiver-side machinery.
  /// The receiver stream a call batch belongs to (opened if absent, and
  /// reset in place for a newer incarnation), or null for a stale one.
  ReceiverStream *receiverFor(const net::Address &From,
                              const CallBatchHeader &M);
  /// Takes the calls of a batch decoded from \p Datagram, whose buffer
  /// the kept calls then share; false when a call was dropped as too far
  /// ahead to hold.
  bool handleCallBatch(const net::Address &From, CallBatchView &M,
                       wire::Bytes &Datagram);
  void handleCancel(const net::Address &From, const CancelMsg &M);
  void deliverReadyCalls(ReceiverStream &R);
  void completeCall(ReceiverStream &R, Seq S, bool NoReply, bool FlushReply,
                    ReplyStatus St, uint32_t ExTag, wire::Bytes Payload,
                    std::string Reason);
  void sendReplyBatch(ReceiverStream &R, bool ResendAll = false);
  void armReplyFlushTimer(ReceiverStream &R);
  void armReceiverAckTimer(ReceiverStream &R);

  /// The current incarnation tagged \p Tag, or null once superseded.
  ReceiverStream *receiverByTag(uint64_t Tag) const {
    return Tag - 1 < ReceiversByTag.size() ? ReceiversByTag[Tag - 1]
                                           : nullptr;
  }

  /// Verifies and decodes an arriving frame in place, then dispatches it.
  void onDatagram(net::Datagram D);
  /// Counts and traces a frame-valid datagram that was dropped whole or in
  /// part because of what it said.
  void dropMalformed(size_t PayloadBytes);

  /// Registry-backed cells behind the StreamCounters view, plus the
  /// transport's histograms (gated on the registry's enabled flag).
  struct Cells {
    Counter *CallsIssued, *CallBatchesSent, *AckBatchesSent,
        *ReplyBatchesSent, *CallsDelivered, *DuplicateCallsDropped,
        *Retransmissions, *Probes, *SenderBreaks, *ReceiverBreaks, *Restarts,
        *CallsFulfilled, *CallsBroken, *CallsBlocked, *RetransmittedBytes,
        *CancelsSent, *CallsCancelled, *BreakerFastFails, *BreakerOpens,
        *BreakerCloses, *BreakerProbes, *FramesCorruptDropped,
        *MalformedDropped, *FramesTrailingBytes;
    Histogram *CallLatencyUs;      ///< issue -> outcome, microseconds.
    Histogram *BatchOccupancy;     ///< Calls per fresh call batch.
    Histogram *ReplyOccupancy;     ///< Replies per reply batch.
    Histogram *RetransmitBatch;    ///< Calls per retransmit batch.
    Histogram *WindowOccupancy;    ///< In-flight calls, sampled at issue.
    Histogram *BlockTimeUs;        ///< Time an issuer spent blocked.
  };

  net::Network &Net;
  /// Cached from Net at construction, saving an indirection on the hot
  /// path of every timer and timestamp.
  sim::Simulation &Sim;
  net::NodeId Node;
  MetricsRegistry &Reg;
  StreamConfig Cfg;
  net::Address Addr;
  bool Dead = false;
  AgentId LastAgent = 0;
  std::function<void(IncomingCall)> CallSink;
  std::function<void(uint64_t)> StreamDeadHook;
  std::function<void(uint64_t, Seq)> CallCancelHook;
  Cells Counters;
  Rng RetransRng; ///< Deterministic retransmit jitter (see StreamConfig).
  /// What onDatagram decodes into, in place: views into the datagram being
  /// handled. The handlers keep what they need (a call with its frame, a
  /// parked reply as a copy) and leave the sequences' capacity here for
  /// the next datagram. Safe to reuse because no network delivers a
  /// datagram from inside a handler: every delivery is a fresh scheduler
  /// event.
  MessageBuffers Rx;

  // The stream tables grow with every stream the transport ever opens
  // (neworder opens a few per transaction), so none is a tree: the two
  // keyed tables are hashed and the tag index is a vector. Only
  // shutdown() iterates in an order that reaches the trace, and it sorts.
  SenderTable Senders;
  /// The entry the last lookup found: almost every operation in a tight
  /// call loop targets the stream targeted last time.
  mutable SenderTable::value_type *LastSender = nullptr;
  ReceiverTable Receivers;
  /// The receiver streams by the tag the runtime names them by: tag T is
  /// slot T - 1, and tags are handed out as the vector grows. A
  /// superseded incarnation's slot is null.
  std::vector<ReceiverStream *> ReceiversByTag;
};

} // namespace promises::stream

#endif // PROMISES_STREAM_STREAMTRANSPORT_H
