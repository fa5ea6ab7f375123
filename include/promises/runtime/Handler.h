//===- promises/runtime/Handler.h - Typed handler descriptors --*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly typed handler (port) descriptors and the conversions between
/// typed Outcomes and the wire-level reply representation.
///
/// A port is strongly typed (paper, Section 2):
///
///   port (int) returns (real) signals (e1(char), e2)
///     ~> HandlerRef<double(int32_t), E1, E2>
///
/// HandlerRefs are transmissible values — "Ports may be sent as arguments
/// and results of remote calls" — which is how the window-system example
/// hands out per-window ports.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_RUNTIME_HANDLER_H
#define PROMISES_RUNTIME_HANDLER_H

#include "promises/core/Outcome.h"
#include "promises/net/Network.h"
#include "promises/stream/StreamTransport.h"

#include <cstdint>
#include <tuple>
#include <type_traits>

namespace promises::runtime {

/// Decomposes a handler signature type `Ret(Args...)`.
template <typename Sig> struct SigTraits;
template <typename Ret, typename... Args> struct SigTraits<Ret(Args...)> {
  using RetType = Ret;
  using ArgsTuple = std::tuple<std::decay_t<Args>...>;
};

/// A typed, transmissible reference to a handler port: which entity, which
/// port group (= which stream calls to it join), and which port.
template <typename Sig, core::ExceptionType... Exs> struct HandlerRef {
  using Signature = Sig;

  net::Address Entity;
  stream::GroupId Group = 0;
  stream::PortId Port = 0;

  /// False for a default-constructed (null) reference.
  bool valid() const { return Port != 0; }

  friend bool operator==(const HandlerRef &, const HandlerRef &) = default;
};

namespace detail {

/// Index of T within Ts... (sizeof...(Ts) when absent).
template <typename T, typename... Ts> constexpr uint32_t indexOf() {
  uint32_t I = 0;
  ((std::same_as<T, Ts> ? true : (++I, false)) || ...);
  return I;
}

/// Encodes a handler's typed outcome into wire reply fields. Returns false
/// when a user codec failed (the caller then reports `failure` and breaks
/// the stream, per the paper's receiver-side encode-failure rule).
template <typename Ret, core::ExceptionType... Exs>
bool outcomeToWire(const core::Outcome<Ret, Exs...> &O,
                   stream::ReplyStatus &St, uint32_t &Tag,
                   wire::Bytes &Payload, std::string &Reason) {
  bool Ok = true;
  O.visit(core::Visitor{
      [&](const Ret &V) {
        St = stream::ReplyStatus::Normal;
        std::string Why;
        auto B = wire::encodeToBytes(V, &Why);
        if (!B) {
          Ok = false;
          Reason = Why;
          return;
        }
        Payload = std::move(*B);
      },
      [&](const core::Unavailable &U) {
        // Handlers have no business raising the built-ins themselves; the
        // closest faithful mapping is a failure reply.
        St = stream::ReplyStatus::Failure;
        Reason = "handler raised unavailable: " + U.Reason;
      },
      [&](const core::Failure &F) {
        St = stream::ReplyStatus::Failure;
        Reason = F.Reason;
      },
      [&](const auto &Ex) {
        using E = std::decay_t<decltype(Ex)>;
        St = stream::ReplyStatus::Exception;
        Tag = indexOf<E, Exs...>();
        std::string Why;
        auto B = wire::encodeToBytes(Ex, &Why);
        if (!B) {
          Ok = false;
          Reason = Why;
          return;
        }
        Payload = std::move(*B);
      },
  });
  return Ok;
}

/// Decodes a declared exception selected by \p Tag.
template <typename OutcomeT, core::ExceptionType... Exs>
OutcomeT decodeExceptionOutcome(uint32_t Tag, wire::ByteView Payload) {
  OutcomeT Result{core::Failure{"unknown exception tag"}};
  if constexpr (sizeof...(Exs) != 0) {
    uint32_t I = 0;
    bool Found = false;
    (
        [&] {
          if (!Found && I == Tag) {
            Found = true;
            std::string Why;
            auto Dec = wire::decodeFromBytes<Exs>(Payload, &Why);
            if (Dec)
              Result = OutcomeT(std::move(*Dec));
            else
              Result = OutcomeT(core::Failure{"could not decode: " + Why});
          }
          ++I;
        }(),
        ...);
  }
  return Result;
}

/// Converts a wire-level reply into the caller's typed outcome (paper,
/// Section 3, step 3: the value is the returned result "unless decoding
/// failed, in which case the value will be failure('could not decode')").
template <typename Ret, core::ExceptionType... Exs>
core::Outcome<Ret, Exs...> wireToOutcome(const stream::ReplyOutcome &RO) {
  using OutcomeT = core::Outcome<Ret, Exs...>;
  switch (RO.K) {
  case stream::ReplyOutcome::Kind::Normal: {
    std::string Why;
    auto V = wire::decodeFromBytes<Ret>(RO.Payload, &Why);
    if (!V)
      return OutcomeT(core::Failure{"could not decode: " + Why});
    return OutcomeT(std::move(*V));
  }
  case stream::ReplyOutcome::Kind::Exception:
    return decodeExceptionOutcome<OutcomeT, Exs...>(RO.ExTag, RO.Payload);
  case stream::ReplyOutcome::Kind::Unavailable:
    return OutcomeT(core::Unavailable{RO.Reason});
  case stream::ReplyOutcome::Kind::Failure:
    return OutcomeT(core::Failure{RO.Reason});
  }
  return OutcomeT(core::Failure{"corrupt reply"});
}

} // namespace detail
} // namespace promises::runtime

namespace promises::wire {
template <typename Sig, promises::core::ExceptionType... Exs>
struct Codec<runtime::HandlerRef<Sig, Exs...>> {
  static void encode(Encoder &E, const runtime::HandlerRef<Sig, Exs...> &V) {
    Codec<net::Address>::encode(E, V.Entity);
    E.writeU32(V.Group);
    E.writeU32(V.Port);
  }
  static runtime::HandlerRef<Sig, Exs...> decode(Decoder &D) {
    runtime::HandlerRef<Sig, Exs...> V;
    V.Entity = Codec<net::Address>::decode(D);
    V.Group = D.readU32();
    V.Port = D.readU32();
    return V;
  }
};
} // namespace promises::wire

#endif // PROMISES_RUNTIME_HANDLER_H
