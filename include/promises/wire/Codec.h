//===- promises/wire/Codec.h - Typed value transmission --------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Codec<T> customization point mapping C++ types onto the external
/// representation. Arguments and results of handler calls are passed by
/// value through these codecs (paper, Section 3: "the data are actually
/// sent using an external representation").
///
/// Built-in codecs cover scalars, strings, vectors, pairs, optionals, and
/// tuples. Abstract types provide their own specialization; such
/// user-provided codecs may fail, which the call layer turns into the
/// `failure` exception.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_WIRE_CODEC_H
#define PROMISES_WIRE_CODEC_H

#include "promises/wire/Encoder.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace promises::wire {

/// Primary template; specialize for each transmissible type with
///   static void encode(Encoder &E, const T &V);
///   static T decode(Decoder &D);
/// decode() must tolerate a failed decoder (return a default value).
/// A codec may also define
///   static size_t size(const T &V);
/// returning the exact number of bytes encode() writes, so that encoders
/// can allocate their buffer once; every built-in codec does.
template <typename T> struct Codec;

/// True for types with a Codec specialization.
template <typename T>
concept Transmissible = requires(Encoder &E, Decoder &D, const T &V) {
  Codec<T>::encode(E, V);
  { Codec<T>::decode(D) } -> std::convertible_to<T>;
};

/// True for codecs that report a value's exact encoded size.
template <typename T>
concept SizedCodec = requires(const T &V) {
  { Codec<T>::size(V) } -> std::convertible_to<size_t>;
};

// --- Scalar codecs -------------------------------------------------------

template <> struct Codec<bool> {
  static void encode(Encoder &E, bool V) { E.writeBool(V); }
  static bool decode(Decoder &D) { return D.readBool(); }
  static constexpr size_t size(bool) { return 1; }
};

template <> struct Codec<uint8_t> {
  static void encode(Encoder &E, uint8_t V) { E.writeU8(V); }
  static uint8_t decode(Decoder &D) { return D.readU8(); }
  static constexpr size_t size(uint8_t) { return 1; }
};

template <> struct Codec<uint16_t> {
  static void encode(Encoder &E, uint16_t V) { E.writeU16(V); }
  static uint16_t decode(Decoder &D) { return D.readU16(); }
  static constexpr size_t size(uint16_t) { return 2; }
};

template <> struct Codec<uint32_t> {
  static void encode(Encoder &E, uint32_t V) { E.writeU32(V); }
  static uint32_t decode(Decoder &D) { return D.readU32(); }
  static constexpr size_t size(uint32_t) { return 4; }
};

template <> struct Codec<uint64_t> {
  static void encode(Encoder &E, uint64_t V) { E.writeU64(V); }
  static uint64_t decode(Decoder &D) { return D.readU64(); }
  static constexpr size_t size(uint64_t) { return 8; }
};

template <> struct Codec<int32_t> {
  static void encode(Encoder &E, int32_t V) { E.writeI32(V); }
  static int32_t decode(Decoder &D) { return D.readI32(); }
  static constexpr size_t size(int32_t) { return 4; }
};

template <> struct Codec<int64_t> {
  static void encode(Encoder &E, int64_t V) { E.writeI64(V); }
  static int64_t decode(Decoder &D) { return D.readI64(); }
  static constexpr size_t size(int64_t) { return 8; }
};

template <> struct Codec<double> {
  static void encode(Encoder &E, double V) { E.writeF64(V); }
  static double decode(Decoder &D) { return D.readF64(); }
  static constexpr size_t size(double) { return 8; }
};

template <> struct Codec<std::string> {
  static void encode(Encoder &E, const std::string &V) { E.writeString(V); }
  static std::string decode(Decoder &D) { return D.readString(); }
  static size_t size(const std::string &V) { return 4 + V.size(); }
};

/// Unit type for handlers that return nothing ("sends" in the paper carry
/// no normal result).
struct Unit {
  friend bool operator==(Unit, Unit) { return true; }
};

template <> struct Codec<Unit> {
  static void encode(Encoder &, Unit) {}
  static Unit decode(Decoder &) { return Unit{}; }
  static constexpr size_t size(Unit) { return 0; }
};

// --- Composite codecs ----------------------------------------------------

/// Hard cap on the element count of any length-prefixed sequence. Even a
/// sequence of empty elements (zero encoded bytes each) cannot make the
/// decoder loop or allocate more than this many times on a hostile length.
inline constexpr uint32_t MaxSequenceElems = 1u << 20;

/// Fewest bytes one encoded T occupies: the size of its default value for
/// sized codecs (the empty or zero value is the shortest encoding of every
/// built-in type), else 1. Bounds how many elements a sequence decode
/// reserves before it has read them.
template <typename T> size_t minEncodedBytes() {
  if constexpr (SizedCodec<T> && std::is_default_constructible_v<T>)
    return std::max<size_t>(1, Codec<T>::size(T{}));
  else
    return 1;
}

template <typename T> struct Codec<std::vector<T>> {
  static void encode(Encoder &E, const std::vector<T> &V) {
    E.writeU32(static_cast<uint32_t>(V.size()));
    for (const T &Elem : V)
      Codec<T>::encode(E, Elem);
  }
  static std::vector<T> decode(Decoder &D) {
    std::vector<T> Out;
    decode(D, Out);
    return Out;
  }
  /// Decodes into \p Out, reusing the capacity it already has: a receiver
  /// that keeps one vector across messages stops allocating for it. The
  /// up-front reserve never exceeds what the remaining bytes could hold,
  /// so a hostile count cannot make it allocate more than the input
  /// justifies.
  static void decode(Decoder &D, std::vector<T> &Out) {
    Out.clear();
    uint32_t N = D.readU32();
    if (N > MaxSequenceElems) {
      D.fail("oversized sequence length");
      return;
    }
    Out.reserve(std::min<size_t>(N, D.remaining() / minEncodedBytes<T>()));
    for (uint32_t I = 0; I != N && !D.failed(); ++I)
      Out.push_back(Codec<T>::decode(D));
  }
  static size_t size(const std::vector<T> &V)
    requires SizedCodec<T>
  {
    size_t N = 4;
    for (const T &Elem : V)
      N += Codec<T>::size(Elem);
    return N;
  }
};

template <typename A, typename B> struct Codec<std::pair<A, B>> {
  static void encode(Encoder &E, const std::pair<A, B> &V) {
    Codec<A>::encode(E, V.first);
    Codec<B>::encode(E, V.second);
  }
  static std::pair<A, B> decode(Decoder &D) {
    A First = Codec<A>::decode(D);
    B Second = Codec<B>::decode(D);
    return {std::move(First), std::move(Second)};
  }
  static size_t size(const std::pair<A, B> &V)
    requires SizedCodec<A> && SizedCodec<B>
  {
    return Codec<A>::size(V.first) + Codec<B>::size(V.second);
  }
};

template <typename T> struct Codec<std::optional<T>> {
  static void encode(Encoder &E, const std::optional<T> &V) {
    E.writeBool(V.has_value());
    if (V)
      Codec<T>::encode(E, *V);
  }
  static std::optional<T> decode(Decoder &D) {
    if (!D.readBool())
      return std::nullopt;
    return Codec<T>::decode(D);
  }
  static size_t size(const std::optional<T> &V)
    requires SizedCodec<T>
  {
    return 1 + (V ? Codec<T>::size(*V) : 0);
  }
};

template <typename... Ts> struct Codec<std::tuple<Ts...>> {
  static void encode(Encoder &E, const std::tuple<Ts...> &V) {
    std::apply([&](const Ts &...Elems) { (Codec<Ts>::encode(E, Elems), ...); },
               V);
  }
  static std::tuple<Ts...> decode(Decoder &D) {
    // Braced init guarantees left-to-right evaluation of the decodes.
    return std::tuple<Ts...>{Codec<Ts>::decode(D)...};
  }
  static size_t size(const std::tuple<Ts...> &V)
    requires(SizedCodec<Ts> && ...)
  {
    return std::apply(
        [](const Ts &...Elems) {
          return (size_t{0} + ... + Codec<Ts>::size(Elems));
        },
        V);
  }
};

// --- Convenience entry points --------------------------------------------

/// Encodes \p Vs one after another into fresh bytes; returns std::nullopt
/// if a codec failed (with \p Reason set to the failure reason). The bytes
/// are exactly encodeToBytes(std::tuple<Ts...>(Vs...)): the tuple codec
/// writes its elements in order, with no framing of its own, so a caller
/// holding the values need not copy them into a tuple first. When every
/// codec is sized the buffer is allocated once, at its exact size (none at
/// all for an empty encoding).
template <Transmissible... Ts>
std::optional<Bytes> encodeValuesToBytes(std::string *Reason,
                                         const Ts &...Vs) {
  Encoder E;
  if constexpr ((SizedCodec<Ts> && ...))
    E.reserve((size_t{0} + ... + Codec<Ts>::size(Vs)));
  (Codec<Ts>::encode(E, Vs), ...);
  if (E.failed()) {
    if (Reason)
      *Reason = E.failReason();
    return std::nullopt;
  }
  return E.take();
}

/// Encodes \p V into fresh bytes (see encodeValuesToBytes).
template <Transmissible T>
std::optional<Bytes> encodeToBytes(const T &V, std::string *Reason = nullptr) {
  return encodeValuesToBytes<T>(Reason, V);
}

/// Decodes a whole value from \p B; returns std::nullopt on failure or
/// trailing garbage. \p B may view a received frame: the value owns what
/// it decodes.
template <Transmissible T>
std::optional<T> decodeFromBytes(ByteView B, std::string *Reason = nullptr) {
  Decoder D(B);
  T V = Codec<T>::decode(D);
  if (D.failed()) {
    if (Reason)
      *Reason = D.failReason();
    return std::nullopt;
  }
  if (!D.atEnd()) {
    if (Reason)
      *Reason = "trailing bytes after value";
    return std::nullopt;
  }
  return V;
}

// --- Failure injection ----------------------------------------------------

/// A transmissible value whose user-provided codec can be told to fail, for
/// exercising the paper's encode/decode failure paths ("user-provided code,
/// which may contain errors").
struct Fragile {
  int32_t Value = 0;
  bool FailEncode = false;
  bool FailDecode = false;

  friend bool operator==(const Fragile &A, const Fragile &B) {
    return A.Value == B.Value;
  }
};

template <> struct Codec<Fragile> {
  static void encode(Encoder &E, const Fragile &V) {
    if (V.FailEncode) {
      E.fail("user codec refused to encode");
      return;
    }
    E.writeI32(V.Value);
    E.writeBool(V.FailDecode);
  }
  static Fragile decode(Decoder &D) {
    Fragile V;
    V.Value = D.readI32();
    V.FailDecode = D.readBool();
    if (V.FailDecode)
      D.fail("user codec refused to decode");
    return V;
  }
};

} // namespace promises::wire

#endif // PROMISES_WIRE_CODEC_H
