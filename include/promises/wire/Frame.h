//===- promises/wire/Frame.h - Checksummed datagram frames -----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire-integrity layer under the call-stream protocol: every datagram
/// the stream transport sends is wrapped in a small versioned frame whose
/// CRC32C checksum is verified before any decoding happens. The paper's
/// model assigns transport damage to the built-in `failure`/`unavailable`
/// exceptions (Section 3); this layer is how damage is *detected* — a
/// corrupt frame is dropped as if lost and recovered by retransmission,
/// never handed to the message decoder.
///
/// Frame layout (all multi-byte fields little-endian):
///
///   offset 0  u8   magic    (0xD5)
///   offset 1  u8   version  (1)
///   offset 2  u32  payload length
///   offset 6  u32  CRC32C of the payload bytes
///   offset 10      payload
///
/// The checksum covers only the payload; the header fields are validated
/// structurally (magic, version, length == frame size - header size), so
/// every corruption class maps to a distinct FrameError.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_WIRE_FRAME_H
#define PROMISES_WIRE_FRAME_H

#include "promises/wire/Encoder.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>

namespace promises::wire {

/// CRC32C (Castagnoli), reflected polynomial 0x82F63B78, one table
/// lookup per byte. The portable path and the oracle the hardware path is
/// tested against. Known answer: crc32c("123456789") == 0xE3069283.
inline uint32_t crc32cTable(const uint8_t *Data, size_t Len,
                            uint32_t Seed = 0) {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? (0x82F63B78u ^ (C >> 1)) : (C >> 1);
      T[I] = C;
    }
    return T;
  }();
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I != Len; ++I)
    Crc = Table[(Crc ^ Data[I]) & 0xFF] ^ (Crc >> 8);
  return ~Crc;
}

#if defined(__x86_64__)
/// True when the CPU has SSE4.2, whose `crc32` instruction computes
/// exactly this polynomial. Probed once per process.
inline bool crc32cHardwareAvailable() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return Has;
}

/// CRC32C with the SSE4.2 `crc32` instruction, 8 bytes per step; same
/// result as crc32cTable. Only call it when crc32cHardwareAvailable().
__attribute__((target("sse4.2"))) inline uint32_t
crc32cSse42(const uint8_t *Data, size_t Len, uint32_t Seed = 0) {
  uint64_t Crc = ~Seed;
  for (; Len >= 8; Data += 8, Len -= 8) {
    uint64_t Word;
    std::memcpy(&Word, Data, sizeof(Word));
    Crc = __builtin_ia32_crc32di(Crc, Word);
  }
  auto Crc32 = static_cast<uint32_t>(Crc);
  for (; Len != 0; ++Data, --Len)
    Crc32 = __builtin_ia32_crc32qi(Crc32, *Data);
  return ~Crc32;
}
#else
inline bool crc32cHardwareAvailable() { return false; }
#endif

/// CRC32C over \p Len bytes: the frame checksum and the WAL record
/// checksum (storage/). Takes the SSE4.2 path when the CPU has it and the
/// table otherwise; the choice is made once, by the CPU alone — no flag or
/// config selects it, and both paths give the same answer.
inline uint32_t crc32c(const uint8_t *Data, size_t Len, uint32_t Seed = 0) {
#if defined(__x86_64__)
  if (crc32cHardwareAvailable())
    return crc32cSse42(Data, Len, Seed);
#endif
  return crc32cTable(Data, Len, Seed);
}

inline uint32_t crc32c(ByteView B, uint32_t Seed = 0) {
  return crc32c(B.data(), B.size(), Seed);
}

/// Buffer-traffic tallies for the seal path (docs/OBSERVABILITY.md).
/// Single-runner discipline (at most one simulated process runs at a
/// time), so plain counters suffice. PayloadBytesCopied counts payload
/// bytes memcpy'd into a second buffer while sealing: the legacy
/// encode-then-copy sealFrame() pays Payload.size() per frame, the
/// in-place finishFrame() path pays zero. Tests and bench_hotpath read
/// and reset these to prove the zero-copy property holds.
struct FrameStats {
  uint64_t FramesSealed = 0;        ///< sealFrame() calls (copying path).
  uint64_t FramesSealedInPlace = 0; ///< finishFrame() calls (zero-copy).
  uint64_t PayloadBytesCopied = 0;  ///< Payload bytes copied while sealing.
};

inline FrameStats &frameStats() {
  static FrameStats S;
  return S;
}

/// First byte of every frame.
inline constexpr uint8_t FrameMagic = 0xD5;

/// Current frame format version.
inline constexpr uint8_t FrameVersion = 1;

/// Bytes of header before the payload.
inline constexpr size_t FrameHeaderBytes = 10;

/// Hard cap on the payload a frame may carry; anything larger is rejected
/// before allocation. Far above any batch the transport produces.
inline constexpr uint32_t MaxFramePayloadBytes = 1u << 20;

/// Why openFrame() rejected a frame. Each corruption class is distinct so
/// drops can be traced with a cause.
enum class FrameError : uint8_t {
  None,
  Truncated,   ///< Shorter than the fixed header.
  BadMagic,    ///< First byte is not FrameMagic.
  BadVersion,  ///< Unknown format version.
  BadLength,   ///< Header length disagrees with the frame size.
  Oversized,   ///< Declared payload exceeds MaxFramePayloadBytes.
  BadChecksum, ///< Payload CRC32C mismatch.
};

inline const char *frameErrorName(FrameError E) {
  switch (E) {
  case FrameError::None:
    return "none";
  case FrameError::Truncated:
    return "truncated";
  case FrameError::BadMagic:
    return "bad magic";
  case FrameError::BadVersion:
    return "bad version";
  case FrameError::BadLength:
    return "bad length";
  case FrameError::Oversized:
    return "oversized";
  case FrameError::BadChecksum:
    return "bad checksum";
  }
  return "unknown";
}

/// Wraps \p Payload in a checksummed frame header.
inline Bytes sealFrame(const Bytes &Payload) {
  frameStats().FramesSealed++;
  frameStats().PayloadBytesCopied += Payload.size();
  Bytes Out;
  Out.reserve(FrameHeaderBytes + Payload.size());
  Out.push_back(FrameMagic);
  Out.push_back(FrameVersion);
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (size_t I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(Len >> (8 * I)));
  uint32_t Crc = crc32c(Payload);
  for (size_t I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(Crc >> (8 * I)));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

/// Begins a zero-copy framed encode: writes a placeholder frame header
/// into the (must-be-empty) encoder, presized for \p PayloadSizeHint
/// payload bytes so that a correct hint makes the entire seal a single
/// allocation. The caller encodes the payload directly after the header
/// and then calls finishFrame() — no intermediate payload buffer ever
/// exists. See docs/PROTOCOL.md, "Buffer ownership and the zero-copy
/// send path".
inline void beginFrame(Encoder &E, size_t PayloadSizeHint = 0) {
  E.reserve(FrameHeaderBytes + PayloadSizeHint);
  E.writeU8(FrameMagic);
  E.writeU8(FrameVersion);
  E.writeU32(0); // Payload length, patched by finishFrame().
  E.writeU32(0); // Payload CRC32C, patched by finishFrame().
}

/// Seals a frame begun with beginFrame() in place: patches the real
/// payload length and CRC32C into the reserved header and moves the
/// buffer out. Fails the encoder (and returns empty) on an oversized
/// payload or a prior encode failure — callers must check E.failed()
/// before transmitting.
inline Bytes finishFrame(Encoder &E) {
  if (E.failed())
    return {};
  size_t PayloadLen = E.size() - FrameHeaderBytes;
  if (PayloadLen > MaxFramePayloadBytes) {
    E.fail("frame payload too large");
    return {};
  }
  E.patchU32(2, static_cast<uint32_t>(PayloadLen));
  E.patchU32(6, crc32c(E.bytes().data() + FrameHeaderBytes, PayloadLen));
  frameStats().FramesSealedInPlace++;
  return E.take();
}

/// Validates \p Frame in place and returns a view of its payload inside
/// \p Frame, or std::nullopt with \p Err (if non-null) set to the
/// rejection cause. Nothing is copied: the receiver decodes straight out
/// of the datagram buffer, which must outlive the view. Never reads past
/// the buffer; the declared length is validated against both the actual
/// frame size and MaxFramePayloadBytes before the checksum touches it.
///
/// By default the buffer must be exactly one frame — any size mismatch is
/// BadLength. Passing \p TrailingBytes switches to the tolerant mode real
/// datagram transports need: some stacks pad a datagram past the sender's
/// length (and a buggy peer could append garbage), so a buffer *longer*
/// than the declared frame is accepted, the excess bytes are dropped
/// (never handed to the decoder, never checksummed), and their count is
/// reported through the out-param for the caller to account (the
/// net.frames_trailing_bytes counter). A buffer shorter than declared is
/// still BadLength in both modes.
inline std::optional<ByteView> openFrame(const Bytes &Frame,
                                         FrameError *Err = nullptr,
                                         size_t *TrailingBytes = nullptr) {
  auto Reject = [&](FrameError E) -> std::optional<ByteView> {
    if (Err)
      *Err = E;
    return std::nullopt;
  };
  if (Err)
    *Err = FrameError::None;
  if (TrailingBytes)
    *TrailingBytes = 0;
  if (Frame.size() < FrameHeaderBytes)
    return Reject(FrameError::Truncated);
  if (Frame[0] != FrameMagic)
    return Reject(FrameError::BadMagic);
  if (Frame[1] != FrameVersion)
    return Reject(FrameError::BadVersion);
  uint32_t Len = 0, Crc = 0;
  for (size_t I = 0; I != 4; ++I) {
    Len |= static_cast<uint32_t>(Frame[2 + I]) << (8 * I);
    Crc |= static_cast<uint32_t>(Frame[6 + I]) << (8 * I);
  }
  if (Len > MaxFramePayloadBytes)
    return Reject(FrameError::Oversized);
  if (TrailingBytes) {
    if (Frame.size() < FrameHeaderBytes + Len)
      return Reject(FrameError::BadLength);
    *TrailingBytes = Frame.size() - (FrameHeaderBytes + Len);
  } else if (Frame.size() != FrameHeaderBytes + Len) {
    return Reject(FrameError::BadLength);
  }
  ByteView Payload(Frame.data() + FrameHeaderBytes, Len);
  if (crc32c(Payload) != Crc)
    return Reject(FrameError::BadChecksum);
  return Payload;
}

/// The view would dangle: open frames that outlive the call.
std::optional<ByteView> openFrame(Bytes &&Frame, FrameError *Err = nullptr,
                                  size_t *TrailingBytes = nullptr) = delete;

} // namespace promises::wire

#endif // PROMISES_WIRE_FRAME_H
