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

#include "promises/net/Network.h"
#include "promises/stream/Messages.h"
#include "promises/support/Metrics.h"
#include "promises/support/Rng.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>

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
  /// delayed by a deterministic jitter uniform in
  /// [0, timeout * RetransJitter], drawn from an Rng seeded with
  /// RetransSeed (xor'd with the endpoint identity), so synchronized
  /// senders do not retransmit in lockstep yet replays stay identical.
  sim::Time RetransmitTimeout = sim::msec(20);
  int MaxRetries = 8;
  double RetransBackoff = 2.0;
  sim::Time RetransmitTimeoutMax = sim::msec(160);
  double RetransJitter = 0.1;
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
  /// When true (paper Section 3: broken streams are "restarted
  /// automatically"), issuing a call on a broken stream reincarnates it;
  /// when false the call fails immediately with the break outcome.
  bool AutoRestart = true;
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
  /// Wire integrity: seal every outgoing datagram in a checksummed frame
  /// and verify arriving frames before decode (wire/Frame.h). Both sides
  /// follow *their own* config — the flag is deliberately not carried on
  /// the wire, so corruption cannot forge a "skip verification" bit. Off
  /// is an ablation knob for measuring checksum cost (BM_ChecksumOverhead);
  /// frames are still sealed, with a zero CRC field that the receiver
  /// ignores.
  bool FrameChecksums = true;
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

/// The sender-visible outcome of one stream call.
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
  wire::Bytes Payload;
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
/// when a call's outcome becomes known.
using ReplyCallback = std::function<void(const ReplyOutcome &)>;

/// A call delivered to the receiving entity's runtime.
struct IncomingCall {
  uint64_t StreamTag = 0; ///< Ordering domain: calls sharing a tag must
                          ///< appear to execute in CallSeq order (unless
                          ///< the runtime opted the group into parallel
                          ///< execution).
  Seq CallSeq = 0;
  GroupId Group = 0;
  PortId Port = 0;
  bool NoReply = false;
  sim::Time DeadlineNs = 0; ///< Absolute deadline from the wire; 0 = none.
  wire::Bytes Args;
  /// The runtime must invoke this exactly once when the call completes.
  /// Out-of-order completions within a stream are buffered; the sender
  /// still observes outcomes in call order.
  std::function<void(ReplyStatus, uint32_t ExTag, wire::Bytes Payload,
                     std::string Reason)>
      Complete;
};

/// Result of synch (paper Section 2/3): AllNormal unless some call in the
/// synch window terminated exceptionally or the stream broke.
struct SynchOutcome {
  enum class Status : uint8_t { AllNormal, ExceptionReply, Unavailable,
                                Failure };
  Status S = Status::AllNormal;
  std::string Reason;
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
                                     ///< failed to decode (local encode bug;
                                     ///< chaos treats any as a violation).
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
  /// (broken stream with AutoRestart off, shut-down transport, or open
  /// circuit breaker) and OnReply was not retained — the caller raises the
  /// indicated exception directly, without creating a promise (paper,
  /// Section 3, step 1). On success S/Inc identify the call for
  /// cancelCall().
  struct IssueResult {
    bool Issued = true;
    bool IsFailure = false; ///< Else unavailable.
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
  SynchOutcome synch(AgentId Agent, net::Address Remote, GroupId Group);

  /// Explicitly breaks (as if by the sender) and reincarnates the stream
  /// (paper's `restart`). Outstanding calls terminate with `unavailable`.
  void restart(AgentId Agent, net::Address Remote, GroupId Group);

  /// True if the sender side of the stream is currently broken (only
  /// observable between a break and the next call when AutoRestart is on).
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
  size_t senderStreamCount() const;
  size_t receiverStreamCount() const;
  /// Fully-broken sender streams reduced to tombstones (incarnation +
  /// break outcome only); a later call on the same key resurrects them.
  size_t retiredStreamCount() const { return Retired.size(); }
  /// Timers currently armed across all sender and receiver streams.
  size_t armedTimerCount() const;
  /// Broken sender streams still holding full state. Transient while a
  /// process is pinned in synch or undelivered outcomes remain; at
  /// quiescence every broken stream must have been reduced to a tombstone,
  /// so a nonzero value then means reclamation leaked.
  size_t brokenSenderStreamCount() const;
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
  struct SenderStream;
  struct ReceiverStream;

  /// What survives of a fully-broken sender stream: enough to keep
  /// isBroken() observable and to resurrect the stream — with incarnation
  /// continuity, so the receiver's stale-incarnation filter still works —
  /// when the agent calls again.
  struct RetiredSender {
    Incarnation Inc = 1;
    bool IsFailure = false;
    std::string Reason;
    bool ExceptionSinceMark = false;
    bool BreakSinceMark = false;
    bool BreakSinceMarkIsFailure = false;
    std::string BreakSinceMarkReason;
  };

  // Keys carry the full epoch-qualified address: streams to different
  // incarnations of a remote node never share state, so a post-restart
  // binding that reuses a port number cannot inherit (or corrupt) the
  // sequencing of a stream to the pre-crash incarnation. SenderKey is
  // retained for the cold-path maps (tombstones, breakers); the live
  // stream state itself is sharded per remote endpoint below.
  using SenderKey = std::tuple<AgentId, net::Address, GroupId>;
  using ReceiverKey = std::tuple<net::Address, AgentId, GroupId>;
  /// Within one endpoint shard, a stream is named by (agent, group).
  using StreamKey = std::pair<AgentId, GroupId>;

  static SenderKey senderKey(AgentId A, net::Address R, GroupId G) {
    return {A, R, G};
  }

  /// All sender-side streams to one remote endpoint (epoch-qualified
  /// address). Sharding replaces the node-global (agent, address, group)
  /// map: hot-path lookups touch only the state of the endpoint being
  /// talked to, and a one-entry cache makes the common talk-to-the-same-
  /// endpoint-repeatedly case a single compare. Shards are never erased
  /// while the transport lives — emptied shards keep their warm map
  /// nodes (and cached pointers stay valid), recycled when the endpoint
  /// is talked to again.
  struct SenderShard {
    std::map<StreamKey, std::unique_ptr<SenderStream>> Streams;
  };
  /// Receiver-side analogue, keyed by the sending transport's address.
  struct ReceiverShard {
    std::map<StreamKey, std::unique_ptr<ReceiverStream>> Streams;
  };

  SenderShard &senderShard(const net::Address &R);
  SenderShard *findSenderShard(const net::Address &R) const;
  ReceiverShard *findReceiverShard(const net::Address &From) const;

  SenderStream *findSender(AgentId A, net::Address R, GroupId G) const;
  SenderStream &getSender(AgentId A, net::Address R, GroupId G);

  /// Endpoint circuit breaker (tentpole 4). Keyed like sender streams but
  /// surviving their retirement: the breaker must stay tripped while the
  /// broken stream collapses to a tombstone.
  struct Breaker {
    int Consecutive = 0; ///< Timeout breaks since the last sign of life.
    uint8_t State = 0;   ///< 0 closed, 1 open, 2 half-open.
    Incarnation ProbeInc = 1; ///< Fallback incarnation for probes.
    bool ProbeTimerArmed = false;
    uint64_t ProbeTimer = 0;
  };

  void breakerOnTimeoutBreak(const SenderKey &K, Incarnation Inc);
  void breakerOnReply(const SenderKey &K);
  void armBreakerProbe(const SenderKey &K);
  void sendBreakerProbe(const SenderKey &K, Breaker &B);

  // Sender-side machinery.
  void transmitNewCalls(SenderStream &S, bool FlushReplies);
  void sendCallBatch(SenderStream &S, Seq FromSeq, Seq ThroughSeq,
                     bool FlushReplies, bool IsRetransmit);
  void retransmitWindow(SenderStream &S);
  void armSenderFlushTimer(SenderStream &S);
  void armSenderRetransTimer(SenderStream &S);
  void armSenderAckTimer(SenderStream &S);
  void onSenderRetransTimer(SenderStream &S);
  void handleReplyBatch(const net::Address &From, ReplyBatchMsg &M);
  void fulfillInOrder(SenderStream &S);
  void breakSender(SenderStream &S, bool IsFailure, std::string Reason);
  void reincarnate(SenderStream &S);
  bool windowFull(const SenderStream &S) const;
  void blockForWindow(SenderStream &S);
  void maybeRetireSender(const SenderKey &K);

  // Receiver-side machinery.
  ReceiverStream &getReceiver(const net::Address &From,
                              const CallBatchMsg &M);
  void handleCallBatch(const net::Address &From, CallBatchMsg &M);
  void handleCancel(const net::Address &From, const CancelMsg &M);
  void deliverReadyCalls(ReceiverStream &R);
  void completeCall(ReceiverStream &R, Seq S, bool NoReply, bool FlushReply,
                    ReplyStatus St, uint32_t ExTag, wire::Bytes Payload,
                    std::string Reason);
  void sendReplyBatch(ReceiverStream &R, bool ResendAll = false);
  void armReplyFlushTimer(ReceiverStream &R);
  void armReceiverAckTimer(ReceiverStream &R);

  void onDatagram(net::Datagram D);

  /// Seals \p M in a checksummed frame (per Cfg.FrameChecksums) and sends
  /// it to \p To. Every datagram the transport emits goes through here.
  void sendMessage(const net::Address &To, const Message &M);

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
  /// Cached from Net at construction: simulation() is on the hot path of
  /// every timer and timestamp, and Network::simulation() is virtual.
  sim::Simulation &Sim;
  net::NodeId Node;
  MetricsRegistry &Reg;
  StreamConfig Cfg;
  net::Address Addr;
  bool Dead = false;
  AgentId LastAgent = 0;
  uint64_t NextStreamTag = 1;
  std::function<void(IncomingCall)> CallSink;
  std::function<void(uint64_t)> StreamDeadHook;
  std::function<void(uint64_t, Seq)> CallCancelHook;
  Cells Counters;
  Rng RetransRng; ///< Deterministic retransmit jitter (see StreamConfig).

  std::map<net::Address, SenderShard> SenderShards;
  std::map<net::Address, ReceiverShard> ReceiverShards;
  /// One-entry shard caches for the hot path: almost every operation in a
  /// tight call loop targets the endpoint targeted last time. Shards are
  /// never erased (see SenderShard), so the pointers cannot dangle.
  mutable net::Address LastSenderAddr{};
  mutable SenderShard *LastSenderShard = nullptr;
  std::map<SenderKey, RetiredSender> Retired;
  std::map<SenderKey, Breaker> Breakers;
  std::map<uint64_t, ReceiverStream *> ReceiversByTag;
};

} // namespace promises::stream

#endif // PROMISES_STREAM_STREAMTRANSPORT_H
