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
//===----------------------------------------------------------------------===//

#ifndef PROMISES_STREAM_MESSAGES_H
#define PROMISES_STREAM_MESSAGES_H

#include "promises/wire/Codec.h"

#include <cstdint>
#include <optional>
#include <string>
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

/// One explicit reply inside a ReplyBatchMsg.
struct WireReply {
  Seq S = 0;
  ReplyStatus Status = ReplyStatus::Normal;
  uint32_t ExTag = 0;
  wire::Bytes Payload;
  std::string Reason;

  friend bool operator==(const WireReply &, const WireReply &) = default;
};

/// Sender -> receiver: new or retransmitted calls plus reply acks. An
/// empty Calls list is a pure ack and/or probe.
struct CallBatchMsg {
  AgentId Agent = 0;
  GroupId Group = 0;
  Incarnation Inc = 1;
  Seq AckReplyThrough = 0; ///< Sender has consumed replies through here.
  bool FlushReplies = false;
  std::vector<CallReq> Calls;

  friend bool operator==(const CallBatchMsg &, const CallBatchMsg &) = default;
};

/// Receiver -> sender: cumulative acks, unacked replies, break marker.
struct ReplyBatchMsg {
  AgentId Agent = 0;
  GroupId Group = 0;
  Incarnation Inc = 1;
  Seq AckCallThrough = 0;   ///< Calls delivered to user code through here.
  Seq CompletedThrough = 0; ///< Calls executed to completion through here.
  bool Broken = false;
  bool BreakIsFailure = false; ///< Else the break maps to `unavailable`.
  std::string BreakReason;
  std::vector<WireReply> Replies;

  friend bool operator==(const ReplyBatchMsg &,
                         const ReplyBatchMsg &) = default;
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

/// Encodes \p M with a leading kind byte.
wire::Bytes encodeMessage(const Message &M);

/// Encodes \p M directly into a sealed frame (wire/Frame.h): the encoder
/// reserves the frame header up front, presized from the exact encoded
/// size, then the length and CRC32C are patched in place — one buffer
/// allocation and zero payload copies per message, byte-identical to
/// `sealFrame(encodeMessage(M), Checksum)`. Aborts (in every build mode)
/// if the message fails to encode or exceeds the frame payload limit;
/// garbage is never transmitted.
wire::Bytes encodeFramedMessage(const Message &M, bool Checksum);

/// Decodes a stream message; std::nullopt on malformed input.
std::optional<Message> decodeMessage(const wire::Bytes &B);

} // namespace promises::stream

namespace promises::wire {

template <> struct Codec<stream::CallReq> {
  static void encode(Encoder &E, const stream::CallReq &V) {
    E.writeU64(V.S);
    E.writeU32(V.Port);
    E.writeBool(V.NoReply);
    E.writeBool(V.FlushReply);
    E.writeU64(V.DeadlineNs);
    E.writeBytes(V.Args.data(), V.Args.size());
  }
  static stream::CallReq decode(Decoder &D) {
    stream::CallReq V;
    V.S = D.readU64();
    V.Port = D.readU32();
    V.NoReply = D.readBool();
    V.FlushReply = D.readBool();
    V.DeadlineNs = D.readU64();
    V.Args = D.readBytes();
    return V;
  }
};

template <> struct Codec<stream::WireReply> {
  static void encode(Encoder &E, const stream::WireReply &V) {
    E.writeU64(V.S);
    E.writeU8(static_cast<uint8_t>(V.Status));
    E.writeU32(V.ExTag);
    E.writeBytes(V.Payload.data(), V.Payload.size());
    E.writeString(V.Reason);
  }
  static stream::WireReply decode(Decoder &D) {
    stream::WireReply V;
    V.S = D.readU64();
    uint8_t Raw = D.readU8();
    if (Raw > static_cast<uint8_t>(stream::ReplyStatus::Unavailable)) {
      D.fail("bad reply status");
      Raw = 0;
    }
    V.Status = static_cast<stream::ReplyStatus>(Raw);
    V.ExTag = D.readU32();
    V.Payload = D.readBytes();
    V.Reason = D.readString();
    return V;
  }
};

template <> struct Codec<stream::CallBatchMsg> {
  static void encode(Encoder &E, const stream::CallBatchMsg &V) {
    E.writeU64(V.Agent);
    E.writeU32(V.Group);
    E.writeU32(V.Inc);
    E.writeU64(V.AckReplyThrough);
    E.writeBool(V.FlushReplies);
    Codec<std::vector<stream::CallReq>>::encode(E, V.Calls);
  }
  static stream::CallBatchMsg decode(Decoder &D) {
    stream::CallBatchMsg V;
    V.Agent = D.readU64();
    V.Group = D.readU32();
    V.Inc = D.readU32();
    V.AckReplyThrough = D.readU64();
    V.FlushReplies = D.readBool();
    V.Calls = Codec<std::vector<stream::CallReq>>::decode(D);
    return V;
  }
};

template <> struct Codec<stream::ReplyBatchMsg> {
  static void encode(Encoder &E, const stream::ReplyBatchMsg &V) {
    E.writeU64(V.Agent);
    E.writeU32(V.Group);
    E.writeU32(V.Inc);
    E.writeU64(V.AckCallThrough);
    E.writeU64(V.CompletedThrough);
    E.writeBool(V.Broken);
    E.writeBool(V.BreakIsFailure);
    E.writeString(V.BreakReason);
    Codec<std::vector<stream::WireReply>>::encode(E, V.Replies);
  }
  static stream::ReplyBatchMsg decode(Decoder &D) {
    stream::ReplyBatchMsg V;
    V.Agent = D.readU64();
    V.Group = D.readU32();
    V.Inc = D.readU32();
    V.AckCallThrough = D.readU64();
    V.CompletedThrough = D.readU64();
    V.Broken = D.readBool();
    V.BreakIsFailure = D.readBool();
    V.BreakReason = D.readString();
    V.Replies = Codec<std::vector<stream::WireReply>>::decode(D);
    return V;
  }
};

template <> struct Codec<stream::CancelMsg> {
  static void encode(Encoder &E, const stream::CancelMsg &V) {
    E.writeU64(V.Agent);
    E.writeU32(V.Group);
    E.writeU32(V.Inc);
    Codec<std::vector<stream::Seq>>::encode(E, V.Seqs);
  }
  static stream::CancelMsg decode(Decoder &D) {
    stream::CancelMsg V;
    V.Agent = D.readU64();
    V.Group = D.readU32();
    V.Inc = D.readU32();
    V.Seqs = Codec<std::vector<stream::Seq>>::decode(D);
    return V;
  }
};

} // namespace promises::wire

#endif // PROMISES_STREAM_MESSAGES_H
