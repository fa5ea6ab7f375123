//===- promises/stream/Messages.h - Stream wire messages -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-level messages exchanged by call-stream transports, and their
/// codecs. Three message kinds exist:
///
///  * CallBatchMsg — a batch of buffered call requests from the sending
///    end of one stream, plus piggybacked acknowledgements of replies.
///  * ReplyBatchMsg — the receiving end's progress on one stream:
///    cumulative delivery/completion acknowledgements, explicit replies,
///    and (when the stream is broken) the break marker.
///  * CancelMsg — best-effort cancellation of specific outstanding calls;
///    the receiver tears the call processes down and completes the calls
///    with Unavailable{cancelled} through the normal reply path.
///
/// A normal ReplyBatchMsg is a delta: it carries only replies never sent
/// before. A recovery batch — the answer to a flush or probe, or a break
/// notice — carries every still-unacknowledged reply, so a sender that
/// lost batches catches up from any one of them and loss recovery stays
/// sender-driven (see StreamTransport.h). StreamConfig::StateShapedReplies
/// makes every batch a recovery batch (the A1 ablation).
///
/// A sender builds CallReq and WireReply values and encodes them; a
/// receiver decodes in place, into CallReqView and WireReplyView, whose
/// bytes stay in the frame they arrived in (decodeMessage).
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_STREAM_MESSAGES_H
#define PROMISES_STREAM_MESSAGES_H

#include "promises/stream/SeqRing.h"
#include "promises/wire/Codec.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace promises::stream {

/// Identifies an agent (the sending end of streams) within one transport.
/// Globally a stream is named by (sender transport address, agent, group).
using AgentId = uint64_t;

/// Identifies a port group (the receiving end of streams) within an
/// entity.
using GroupId = uint32_t;

/// Identifies a port (handler) within an entity.
using PortId = uint32_t;

/// Call sequence number within one stream incarnation; starts at 1.
using Seq = uint64_t;

/// Stream incarnation; bumped by restart (paper: "reincarnation").
using Incarnation = uint32_t;

/// Outcome category of one executed call as sent on the wire.
enum class ReplyStatus : uint8_t {
  Normal = 0,    ///< Normal termination; payload = encoded results.
  Exception = 1, ///< Declared exception; ExTag selects which, payload =
                 ///< encoded exception arguments.
  Failure = 2,   ///< The `failure` built-in (e.g. decode failure, no such
                 ///< port); Reason explains.
  Unavailable = 3, ///< The `unavailable` built-in scoped to this one call
                   ///< (deadline expired, cancelled, shed); Reason
                   ///< explains. Unlike a break, the stream stays usable.
};

/// One call request inside a CallBatchMsg.
struct CallReq {
  Seq S = 0;
  PortId Port = 0;
  bool NoReply = false;    ///< A "send": normal replies are omitted.
  bool FlushReply = false; ///< RPC: flush the reply as soon as available.
  uint64_t DeadlineNs = 0; ///< Absolute virtual-time deadline; the
                           ///< receiver drops the call with
                           ///< Unavailable{deadline expired} if execution
                           ///< has not started by then. 0 = none.
  wire::Bytes Args;

  friend bool operator==(const CallReq &, const CallReq &) = default;
};
// Every retransmission and receive window holds one per call in flight.
static_assert(sizeof(CallReq) <= 48, "CallReq grew");

/// Bytes inside a received frame: a view of them, and the shared reference
/// to the frame's buffer that keeps the view valid for as long as it is
/// held. The reference is null while the frame is still the datagram being
/// decoded, and for an empty view, which needs no frame.
struct FrameSlice : wire::ByteView {
  std::shared_ptr<const wire::Bytes> Frame;
};

/// A CallReq as the receiver decodes it: the arguments are a slice of the
/// frame (the transport attaches the frame when it keeps the call).
struct CallReqView {
  Seq S = 0;
  PortId Port = 0;
  bool NoReply = false;
  bool FlushReply = false;
  uint64_t DeadlineNs = 0;
  FrameSlice Args;
};

/// One explicit reply inside a ReplyBatchMsg.
struct WireReply {
  Seq S = 0;
  ReplyStatus Status = ReplyStatus::Normal;
  uint32_t ExTag = 0;
  wire::Bytes Payload;
  std::string Reason;

  friend bool operator==(const WireReply &, const WireReply &) = default;
};
// Every unacked-reply and pending-reply ring holds one per reply.
static_assert(sizeof(WireReply) <= 72, "WireReply grew");

/// A WireReply as the sender decodes it: Payload and Reason view the frame
/// and are valid only while the frame is being handled.
struct WireReplyView {
  Seq S = 0;
  ReplyStatus Status = ReplyStatus::Normal;
  uint32_t ExTag = 0;
  wire::ByteView Payload;
  std::string_view Reason;
};

/// The fields of a CallBatchMsg that precede its calls. The transport
/// seals outgoing batches from a header plus its retransmission window
/// (encodeFramedCallBatch) and never builds a CallBatchMsg to send one.
struct CallBatchHeader {
  AgentId Agent = 0;
  GroupId Group = 0;
  Incarnation Inc = 1;
  Seq AckReplyThrough = 0; ///< Sender has consumed replies through here.
  bool FlushReplies = false;

  friend bool operator==(const CallBatchHeader &,
                         const CallBatchHeader &) = default;
};

/// Sender -> receiver: new or retransmitted calls plus reply acks. An
/// empty Calls list is a pure ack and/or probe.
struct CallBatchMsg : CallBatchHeader {
  std::vector<CallReq> Calls;

  friend bool operator==(const CallBatchMsg &, const CallBatchMsg &) = default;
};

/// A CallBatchMsg decoded in place.
struct CallBatchView : CallBatchHeader {
  std::vector<CallReqView> Calls;
};

/// The fields of a ReplyBatchMsg that precede its replies (see
/// CallBatchHeader; encodeFramedReplyBatch is the send path).
struct ReplyBatchHeader {
  AgentId Agent = 0;
  GroupId Group = 0;
  Incarnation Inc = 1;
  Seq AckCallThrough = 0;   ///< Calls delivered to user code through here.
  Seq CompletedThrough = 0; ///< Calls executed to completion through here.
  bool Broken = false;
  bool BreakIsFailure = false; ///< Else the break maps to `unavailable`.
  std::string BreakReason;

  friend bool operator==(const ReplyBatchHeader &,
                         const ReplyBatchHeader &) = default;
};

/// Receiver -> sender: cumulative acks, unacked replies, break marker.
struct ReplyBatchMsg : ReplyBatchHeader {
  std::vector<WireReply> Replies;

  friend bool operator==(const ReplyBatchMsg &,
                         const ReplyBatchMsg &) = default;
};

/// A ReplyBatchMsg decoded in place.
struct ReplyBatchView : ReplyBatchHeader {
  std::vector<WireReplyView> Replies;
};

/// Sender -> receiver: cancel specific outstanding calls. Fire-and-forget
/// (never retransmitted): a lost cancel just means the call completes
/// normally, which the sender must tolerate anyway. Cancelled calls are
/// completed with ReplyStatus::Unavailable through the regular reply
/// machinery, so ordering and conservation are untouched.
struct CancelMsg {
  AgentId Agent = 0;
  GroupId Group = 0;
  Incarnation Inc = 1;
  std::vector<Seq> Seqs;

  friend bool operator==(const CancelMsg &, const CancelMsg &) = default;
};

/// Any stream-layer message.
using Message = std::variant<CallBatchMsg, ReplyBatchMsg, CancelMsg>;

/// The kind byte that leads every encoded message, numbered in the order
/// of Message's alternatives.
enum class MessageKind : uint8_t { CallBatch = 1, ReplyBatch = 2, Cancel = 3 };

/// Encodes \p M with a leading kind byte.
wire::Bytes encodeMessage(const Message &M);

/// Encodes \p M directly into a sealed frame (wire/Frame.h): the encoder
/// reserves the frame header up front, presized from the exact encoded
/// size, then the length and CRC32C are patched in place — one buffer
/// allocation and zero payload copies per message, byte-identical to
/// `sealFrame(encodeMessage(M))`. Aborts (in every build mode) if the
/// message fails to encode or exceeds the frame payload limit; garbage is
/// never transmitted.
wire::Bytes encodeFramedMessage(const Message &M);

/// Seals a call batch carrying the calls \p Window holds for seqs
/// \p From..\p Through (none when From > Through; each must be present),
/// encoded straight out of the window: one allocation, no call copied.
/// Byte-identical to encodeFramedMessage of the CallBatchMsg with header
/// \p H and those calls.
wire::Bytes encodeFramedCallBatch(const CallBatchHeader &H,
                                  const SeqRing<CallReq> &Window, Seq From,
                                  Seq Through);

/// Seals a reply batch carrying every reply in \p Unacked above seq
/// \p After, in seq order, encoded straight out of the ring. One
/// allocation; byte-identical to encodeFramedMessage of the equivalent
/// ReplyBatchMsg.
wire::Bytes encodeFramedReplyBatch(const ReplyBatchHeader &H,
                                   const SeqRing<WireReply> &Unacked,
                                   Seq After);

/// Decode targets a receiver keeps from one datagram to the next: one
/// message per kind, decoded in place, so each batch's sequence keeps its
/// capacity and a steady-state decode allocates nothing.
struct MessageBuffers {
  CallBatchView Calls;
  ReplyBatchView Replies;
  CancelMsg Cancel;
};

/// Decodes \p B in place into the member of \p Into that matches its
/// kind and returns that kind, or std::nullopt on malformed input (the
/// member is then unspecified). The decoded arguments, payloads and
/// reasons view \p B. This is the one decoder of the receive path.
std::optional<MessageKind> decodeMessage(wire::ByteView B,
                                         MessageBuffers &Into);

/// Decodes a stream message into values that own their bytes: the in-place
/// decode, copied out. std::nullopt on malformed input.
std::optional<Message> decodeMessage(wire::ByteView B);

} // namespace promises::stream

namespace promises::wire {

// A call and a reply are encoded from the values a sender builds and
// decoded in place, into views: each codec half has one element type. A
// view's size() only bounds how many elements a sequence decode reserves
// for (minEncodedBytes).

template <> struct Codec<stream::CallReq> {
  /// Encoded bytes of a call besides its argument bytes.
  static constexpr size_t FixedBytes = 8 + 4 + 1 + 1 + 8 + 4;

  static void encode(Encoder &E, const stream::CallReq &V) {
    E.writeU64(V.S);
    E.writeU32(V.Port);
    E.writeBool(V.NoReply);
    E.writeBool(V.FlushReply);
    E.writeU64(V.DeadlineNs);
    E.writeBytes(V.Args.data(), V.Args.size());
  }
  static size_t size(const stream::CallReq &V) {
    return FixedBytes + V.Args.size();
  }
};

template <> struct Codec<stream::CallReqView> {
  static stream::CallReqView decode(Decoder &D) {
    stream::CallReqView V;
    V.S = D.readU64();
    V.Port = D.readU32();
    V.NoReply = D.readBool();
    V.FlushReply = D.readBool();
    V.DeadlineNs = D.readU64();
    V.Args = {D.readBytesView(), nullptr};
    return V;
  }
  static size_t size(const stream::CallReqView &V) {
    return Codec<stream::CallReq>::FixedBytes + V.Args.size();
  }
};

template <> struct Codec<stream::WireReply> {
  /// Encoded bytes of a reply besides its payload and reason bytes.
  static constexpr size_t FixedBytes = 8 + 1 + 4 + 4 + 4;

  static void encode(Encoder &E, const stream::WireReply &V) {
    E.writeU64(V.S);
    E.writeU8(static_cast<uint8_t>(V.Status));
    E.writeU32(V.ExTag);
    E.writeBytes(V.Payload.data(), V.Payload.size());
    E.writeString(V.Reason);
  }
  static size_t size(const stream::WireReply &V) {
    return FixedBytes + V.Payload.size() + V.Reason.size();
  }
};

template <> struct Codec<stream::WireReplyView> {
  static stream::WireReplyView decode(Decoder &D) {
    stream::WireReplyView V;
    V.S = D.readU64();
    uint8_t Raw = D.readU8();
    if (Raw > static_cast<uint8_t>(stream::ReplyStatus::Unavailable)) {
      D.fail("bad reply status");
      Raw = 0;
    }
    V.Status = static_cast<stream::ReplyStatus>(Raw);
    V.ExTag = D.readU32();
    V.Payload = D.readBytesView();
    V.Reason = D.readStringView();
    return V;
  }
  static size_t size(const stream::WireReplyView &V) {
    return Codec<stream::WireReply>::FixedBytes + V.Payload.size() +
           V.Reason.size();
  }
};

template <> struct Codec<stream::CallBatchHeader> {
  static void encode(Encoder &E, const stream::CallBatchHeader &V) {
    E.writeU64(V.Agent);
    E.writeU32(V.Group);
    E.writeU32(V.Inc);
    E.writeU64(V.AckReplyThrough);
    E.writeBool(V.FlushReplies);
  }
  static stream::CallBatchHeader decode(Decoder &D) {
    stream::CallBatchHeader V;
    V.Agent = D.readU64();
    V.Group = D.readU32();
    V.Inc = D.readU32();
    V.AckReplyThrough = D.readU64();
    V.FlushReplies = D.readBool();
    return V;
  }
  static size_t size(const stream::CallBatchHeader &) {
    return 8 + 4 + 4 + 8 + 1;
  }
};

template <> struct Codec<stream::ReplyBatchHeader> {
  static void encode(Encoder &E, const stream::ReplyBatchHeader &V) {
    E.writeU64(V.Agent);
    E.writeU32(V.Group);
    E.writeU32(V.Inc);
    E.writeU64(V.AckCallThrough);
    E.writeU64(V.CompletedThrough);
    E.writeBool(V.Broken);
    E.writeBool(V.BreakIsFailure);
    E.writeString(V.BreakReason);
  }
  static stream::ReplyBatchHeader decode(Decoder &D) {
    stream::ReplyBatchHeader V;
    V.Agent = D.readU64();
    V.Group = D.readU32();
    V.Inc = D.readU32();
    V.AckCallThrough = D.readU64();
    V.CompletedThrough = D.readU64();
    V.Broken = D.readBool();
    V.BreakIsFailure = D.readBool();
    V.BreakReason = D.readString();
    return V;
  }
  static size_t size(const stream::ReplyBatchHeader &V) {
    return 8 + 4 + 4 + 8 + 8 + 1 + 1 + (4 + V.BreakReason.size());
  }
};

/// A batch is its header followed by its sequence. The decode side is
/// BatchViewCodec.
template <typename Msg, typename Header, typename Elem, auto Items>
struct BatchCodec {
  static void encode(Encoder &E, const Msg &V) {
    Codec<Header>::encode(E, V);
    Codec<std::vector<Elem>>::encode(E, V.*Items);
  }
  static size_t size(const Msg &V) {
    return Codec<Header>::size(V) + Codec<std::vector<Elem>>::size(V.*Items);
  }
};

template <>
struct Codec<stream::CallBatchMsg>
    : BatchCodec<stream::CallBatchMsg, stream::CallBatchHeader,
                 stream::CallReq, &stream::CallBatchMsg::Calls> {};

template <>
struct Codec<stream::ReplyBatchMsg>
    : BatchCodec<stream::ReplyBatchMsg, stream::ReplyBatchHeader,
                 stream::WireReply, &stream::ReplyBatchMsg::Replies> {};

/// Decodes a batch in place into \p Out, reusing its sequence's capacity
/// (see stream::MessageBuffers).
template <typename View, typename Header, typename Elem, auto Items>
struct BatchViewCodec {
  static void decode(Decoder &D, View &Out) {
    static_cast<Header &>(Out) = Codec<Header>::decode(D);
    Codec<std::vector<Elem>>::decode(D, Out.*Items);
  }
};

template <>
struct Codec<stream::CallBatchView>
    : BatchViewCodec<stream::CallBatchView, stream::CallBatchHeader,
                     stream::CallReqView, &stream::CallBatchView::Calls> {};

template <>
struct Codec<stream::ReplyBatchView>
    : BatchViewCodec<stream::ReplyBatchView, stream::ReplyBatchHeader,
                     stream::WireReplyView,
                     &stream::ReplyBatchView::Replies> {};

template <> struct Codec<stream::CancelMsg> {
  static void encode(Encoder &E, const stream::CancelMsg &V) {
    E.writeU64(V.Agent);
    E.writeU32(V.Group);
    E.writeU32(V.Inc);
    Codec<std::vector<stream::Seq>>::encode(E, V.Seqs);
  }
  /// A cancel carries no bytes to view: decoding into \p Out is in place.
  static void decode(Decoder &D, stream::CancelMsg &Out) {
    Out.Agent = D.readU64();
    Out.Group = D.readU32();
    Out.Inc = D.readU32();
    Codec<std::vector<stream::Seq>>::decode(D, Out.Seqs);
  }
  static size_t size(const stream::CancelMsg &V) {
    return 8 + 4 + 4 + Codec<std::vector<stream::Seq>>::size(V.Seqs);
  }
};

} // namespace promises::wire

#endif // PROMISES_STREAM_MESSAGES_H
