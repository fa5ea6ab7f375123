//===- promises/wire/Encoder.h - External representation -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level encoder/decoder for the external representation used to pass
/// arguments and results by value between entities (Herlihy & Liskov's
/// value transmission method, reference [7] of the paper).
///
/// Errors are sticky: any failed write/read marks the whole
/// encoder/decoder failed, and later operations are inert. Per the paper,
/// encode/decode failures surface as the `failure` exception at the call
/// level, and a decode failure at the receiver also breaks the stream.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_WIRE_ENCODER_H
#define PROMISES_WIRE_ENCODER_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace promises::wire {

/// Raw encoded bytes.
using Bytes = std::vector<uint8_t>;

/// A read-only window onto encoded bytes someone else owns — on the
/// receive path, a frame payload inside its datagram buffer.
using ByteView = std::span<const uint8_t>;

/// Hard cap on any single length-prefixed byte sequence or string. A
/// corrupt or hostile length above this is rejected before allocation,
/// independent of how many bytes the buffer actually holds.
inline constexpr uint32_t MaxStringBytes = 1u << 20;

/// Serializes values into the external representation (little-endian,
/// fixed-width scalars, length-prefixed sequences).
class Encoder {
public:
  Encoder() = default;

  /// Presizes the buffer for \p Hint total bytes (including anything
  /// already written). A correct hint makes the whole encode a single
  /// allocation; an undersized hint only costs reallocation, never
  /// correctness.
  void reserve(size_t Hint) { Buf.reserve(Hint); }

  void writeU8(uint8_t V) {
    if (!Failed)
      Buf.push_back(V);
  }
  void writeBool(bool V) { writeU8(V ? 1 : 0); }
  void writeU16(uint16_t V) { writeLe(V); }
  void writeU32(uint32_t V) { writeLe(V); }
  void writeU64(uint64_t V) { writeLe(V); }
  void writeI32(int32_t V) { writeLe(static_cast<uint32_t>(V)); }
  void writeI64(int64_t V) { writeLe(static_cast<uint64_t>(V)); }

  void writeF64(double V) {
    uint64_t Raw;
    std::memcpy(&Raw, &V, sizeof(Raw));
    writeU64(Raw);
  }

  /// Writes a length-prefixed byte sequence. Lengths above MaxStringBytes
  /// fail the encoder (mirror of the decode-side bound): a sequence the
  /// receiver is guaranteed to reject must never be encoded, and a length
  /// that would not survive the u32 prefix must never be truncated into
  /// one that seems to.
  void writeBytes(const uint8_t *Data, size_t Len) {
    if (Failed)
      return;
    if (Len > MaxStringBytes) {
      fail("oversized byte sequence");
      return;
    }
    writeU32(static_cast<uint32_t>(Len));
    // resize + memcpy, like writeLe: GCC 12 reports a false -Warray-bounds
    // on vector::insert's regrowth path here.
    size_t At = Buf.size();
    Buf.resize(At + Len);
    if (Len != 0)
      std::memcpy(Buf.data() + At, Data, Len);
  }

  /// Writes a length-prefixed string.
  void writeString(const std::string &S) {
    writeBytes(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  }

  /// Overwrites four previously written bytes at offset \p Off with \p V
  /// (little-endian). Used by the framing layer to patch a reserved
  /// header in place once the payload length and checksum are known; the
  /// range [Off, Off+4) must already have been written.
  void patchU32(size_t Off, uint32_t V) {
    if (Failed)
      return;
    if (Off + 4 > Buf.size()) {
      fail("patch outside encoded bytes");
      return;
    }
    for (size_t I = 0; I != 4; ++I)
      Buf[Off + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  /// Marks the encoding failed (used by fallible user codecs for abstract
  /// types). Subsequent writes are ignored.
  void fail(std::string Reason) {
    if (!Failed) {
      Failed = true;
      Reason_ = std::move(Reason);
    }
  }

  bool failed() const { return Failed; }
  const std::string &failReason() const { return Reason_; }

  /// Bytes encoded so far (undefined content if failed()).
  const Bytes &bytes() const { return Buf; }

  /// Moves the encoded bytes out.
  Bytes take() { return std::move(Buf); }

  /// Number of bytes encoded so far.
  size_t size() const { return Buf.size(); }

private:
  /// One resize per scalar: byte-wise push_back would check capacity
  /// (and regrow a small buffer) once per byte, and GCC 12 reports false
  /// -Wstringop-overflow on the equivalent vector::insert.
  template <typename T> void writeLe(T V) {
    if (Failed)
      return;
    size_t At = Buf.size();
    Buf.resize(At + sizeof(T));
    for (size_t I = 0; I != sizeof(T); ++I)
      Buf[At + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  Bytes Buf;
  bool Failed = false;
  std::string Reason_;
};

/// Deserializes values from the external representation. Does not own the
/// underlying bytes; keep them alive while decoding.
class Decoder {
public:
  Decoder(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}
  explicit Decoder(ByteView B) : Decoder(B.data(), B.size()) {}

  uint8_t readU8() {
    uint8_t V = 0;
    readRaw(&V, 1);
    return V;
  }
  bool readBool() { return readU8() != 0; }
  uint16_t readU16() { return readLe<uint16_t>(); }
  uint32_t readU32() { return readLe<uint32_t>(); }
  uint64_t readU64() { return readLe<uint64_t>(); }
  int32_t readI32() { return static_cast<int32_t>(readU32()); }
  int64_t readI64() { return static_cast<int64_t>(readU64()); }

  double readF64() {
    uint64_t Raw = readU64();
    double V;
    std::memcpy(&V, &Raw, sizeof(V));
    return V;
  }

  /// Reads a length-prefixed byte sequence.
  Bytes readBytes() {
    ByteView V = readBytesView();
    return Bytes(V.begin(), V.end());
  }

  /// Reads a length-prefixed byte sequence in place: a view of the
  /// decoded bytes, valid while they are.
  ByteView readBytesView() {
    return readSized("oversized byte sequence", "truncated byte sequence");
  }

  /// Reads a length-prefixed string.
  std::string readString() { return std::string(readStringView()); }

  /// Reads a length-prefixed string in place (see readBytesView).
  std::string_view readStringView() {
    ByteView V = readSized("oversized string", "truncated string");
    return {reinterpret_cast<const char *>(V.data()), V.size()};
  }

  /// Marks the decoding failed (bounds violation or fallible user codec).
  void fail(std::string Reason) {
    if (!Failed) {
      Failed = true;
      Reason_ = std::move(Reason);
    }
  }

  bool failed() const { return Failed; }
  const std::string &failReason() const { return Reason_; }

  /// Bytes not yet consumed.
  size_t remaining() const { return Len - Pos; }

  /// True when every byte has been consumed.
  bool atEnd() const { return Pos == Len; }

private:
  /// The next length-prefixed run of bytes, in place; empty (and the
  /// decoder failed with the matching reason) when its length is over
  /// MaxStringBytes or past the end.
  ByteView readSized(const char *Oversized, const char *Truncated) {
    uint32_t N = readU32();
    if (N > MaxStringBytes) {
      fail(Oversized);
      return {};
    }
    if (N > remaining()) {
      fail(Truncated);
      return {};
    }
    ByteView V(Data + Pos, N);
    Pos += N;
    return V;
  }

  void readRaw(void *Out, size_t N) {
    if (Failed)
      return;
    if (N > remaining()) {
      fail("read past end of message");
      return;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
  }

  template <typename T> T readLe() {
    uint8_t Raw[sizeof(T)] = {0};
    readRaw(Raw, sizeof(T));
    T V = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      V |= static_cast<T>(static_cast<T>(Raw[I]) << (8 * I));
    return V;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
  std::string Reason_;
};

} // namespace promises::wire

#endif // PROMISES_WIRE_ENCODER_H
