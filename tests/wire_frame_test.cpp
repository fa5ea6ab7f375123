//===- wire_frame_test.cpp - Frame header + checksum tests ----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The datagram frame layer (docs/PROTOCOL.md): CRC32C, the versioned
// header, and openFrame's rejection taxonomy. Every corruption class maps
// to a distinct FrameError so dropped frames are diagnosable from counters
// and trace events alone.
//
//===----------------------------------------------------------------------===//

#include "promises/wire/Frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace promises;
using namespace promises::wire;

namespace {

Bytes bytes(std::initializer_list<uint8_t> L) { return Bytes(L); }

/// An opened payload is a view into its frame; copy it out to compare.
Bytes copyOf(ByteView V) { return Bytes(V.begin(), V.end()); }

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC-32C check value (RFC 3720 appendix, and every other
  // Castagnoli implementation): crc32c("123456789") == 0xE3069283.
  const char *Digits = "123456789";
  EXPECT_EQ(crc32c(reinterpret_cast<const uint8_t *>(Digits), 9), 0xE3069283u);
  // The portable table path, whichever path crc32c() took.
  EXPECT_EQ(crc32cTable(reinterpret_cast<const uint8_t *>(Digits), 9),
            0xE3069283u);
  // Empty input.
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // 32 zero bytes (another published vector): 0x8A9136AA.
  Bytes Zeros(32, 0);
  EXPECT_EQ(crc32c(Zeros), 0x8A9136AAu);
}

TEST(Crc32c, SeedChains) {
  // Checksumming in two chunks with chaining equals one pass.
  Bytes B = bytes({1, 2, 3, 4, 5, 6, 7, 8});
  uint32_t Whole = crc32c(B);
  uint32_t Half = crc32c(B.data(), 4);
  EXPECT_EQ(crc32c(B.data() + 4, 4, Half), Whole);
}

// crc32c() picks its path by CPU alone, so the properties below call both
// implementations directly: the table loop is the oracle for the SSE4.2
// path. The hardware half skips on a CPU (or architecture) without it.
#if defined(__x86_64__)
#define SKIP_WITHOUT_SSE42()                                                   \
  if (!crc32cHardwareAvailable())                                              \
  GTEST_SKIP() << "CPU lacks SSE4.2"
#else
#define SKIP_WITHOUT_SSE42() GTEST_SKIP() << "no SSE4.2 path on this target"
#endif

Bytes randomBytes(std::mt19937_64 &G, size_t N) {
  Bytes B(N);
  for (uint8_t &X : B)
    X = static_cast<uint8_t>(G());
  return B;
}

TEST(Crc32c, HardwarePathKnownAnswer) {
  SKIP_WITHOUT_SSE42();
#if defined(__x86_64__)
  const auto *Digits = reinterpret_cast<const uint8_t *>("123456789");
  EXPECT_EQ(crc32cSse42(Digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32cSse42(nullptr, 0), 0u);
#endif
}

TEST(Crc32c, HardwareMatchesTableAtEveryShortLengthAndOffset) {
  // Lengths 0-64 cover the 8-byte loop, the byte tail, and both at once;
  // offsets 0-7 cover every alignment of the 8-byte loads.
  SKIP_WITHOUT_SSE42();
#if defined(__x86_64__)
  std::mt19937_64 G(1);
  Bytes B = randomBytes(G, 64 + 8);
  for (size_t Off = 0; Off != 8; ++Off)
    for (size_t Len = 0; Len <= 64; ++Len)
      ASSERT_EQ(crc32cSse42(B.data() + Off, Len),
                crc32cTable(B.data() + Off, Len))
          << "offset " << Off << " length " << Len;
#endif
}

TEST(Crc32c, HardwareMatchesTableOnRandomBuffers) {
  SKIP_WITHOUT_SSE42();
#if defined(__x86_64__)
  std::mt19937_64 G(2);
  for (int I = 0; I != 200; ++I) {
    Bytes B = randomBytes(G, G() % (64 * 1024 + 1));
    auto Seed = static_cast<uint32_t>(G());
    ASSERT_EQ(crc32cSse42(B.data(), B.size(), Seed),
              crc32cTable(B.data(), B.size(), Seed))
        << "size " << B.size() << " seed " << Seed;
  }
#endif
}

TEST(Crc32c, HardwareMatchesTableWhenChained) {
  // Checksumming in pieces, each seeded with the CRC so far, equals one
  // pass — on each path, and with the paths mixed piece by piece.
  SKIP_WITHOUT_SSE42();
#if defined(__x86_64__)
  std::mt19937_64 G(3);
  Bytes B = randomBytes(G, 4096);
  uint32_t Whole = crc32cTable(B.data(), B.size());
  for (int I = 0; I != 100; ++I) {
    uint32_t Table = 0, Hw = 0, Mixed = 0;
    for (size_t Pos = 0; Pos != B.size();) {
      size_t Len = std::min<size_t>(B.size() - Pos, G() % 300);
      Table = crc32cTable(B.data() + Pos, Len, Table);
      Hw = crc32cSse42(B.data() + Pos, Len, Hw);
      Mixed = (Pos & 1) ? crc32cSse42(B.data() + Pos, Len, Mixed)
                        : crc32cTable(B.data() + Pos, Len, Mixed);
      Pos += Len;
    }
    ASSERT_EQ(Table, Whole);
    ASSERT_EQ(Hw, Whole);
    ASSERT_EQ(Mixed, Whole);
  }
#endif
}

TEST(Frame, SealOpenRoundTrips) {
  for (size_t N : {size_t(0), size_t(1), size_t(17), size_t(4096)}) {
    Bytes Payload(N);
    for (size_t I = 0; I != N; ++I)
      Payload[I] = static_cast<uint8_t>(I * 37 + 11);
    Bytes Frame = sealFrame(Payload);
    EXPECT_EQ(Frame.size(), FrameHeaderBytes + N);
    FrameError Err = FrameError::BadMagic; // Must be reset to None.
    auto Opened = openFrame(Frame, &Err);
    ASSERT_TRUE(Opened.has_value()) << "payload size " << N;
    EXPECT_EQ(copyOf(*Opened), Payload);
    EXPECT_EQ(Err, FrameError::None);
  }
}

TEST(Frame, EveryHeaderByteIsChecked) {
  Bytes Frame = sealFrame(bytes({0xAA, 0xBB, 0xCC}));

  // Truncated: shorter than the header.
  for (size_t N = 0; N != FrameHeaderBytes; ++N) {
    Bytes Short(Frame.begin(), Frame.begin() + N);
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(Short, &Err).has_value());
    EXPECT_EQ(Err, FrameError::Truncated);
  }

  // Bad magic.
  {
    Bytes F = Frame;
    F[0] ^= 0xFF;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadMagic);
  }

  // Bad version.
  {
    Bytes F = Frame;
    F[1] = FrameVersion + 1;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadVersion);
  }

  // Length disagrees with the actual byte count (both directions).
  {
    Bytes F = Frame;
    F.pop_back();
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadLength);
  }
  {
    Bytes F = Frame;
    F.push_back(0);
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadLength);
  }

  // Oversized: a hostile length field is rejected before any comparison
  // against the real size could allocate or wrap.
  {
    Bytes F = Frame;
    uint32_t Huge = MaxFramePayloadBytes + 1;
    for (size_t I = 0; I != 4; ++I)
      F.at(2 + I) = static_cast<uint8_t>(Huge >> (8 * I));
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::Oversized);
  }

  // Payload damage: only the checksum can catch it.
  {
    Bytes F = Frame;
    F.back() ^= 0x01;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadChecksum);
  }

  // Checksum field damage.
  {
    Bytes F = Frame;
    F[6] ^= 0x01;
    FrameError Err = FrameError::None;
    EXPECT_FALSE(openFrame(F, &Err).has_value());
    EXPECT_EQ(Err, FrameError::BadChecksum);
  }
}

TEST(Frame, TrailingBytesRejectedInStrictMode) {
  // Without the out-param, any size mismatch — including extra bytes past
  // the declared payload — is BadLength, byte-for-byte as before.
  Bytes Frame = sealFrame(bytes({0x10, 0x20, 0x30}));
  Bytes Padded = Frame;
  Padded.push_back(0xEE);
  Padded.push_back(0xFF);
  FrameError Err = FrameError::None;
  EXPECT_FALSE(openFrame(Padded, &Err).has_value());
  EXPECT_EQ(Err, FrameError::BadLength);
}

TEST(Frame, TrailingBytesToleratedAndCounted) {
  Bytes Payload = bytes({0x10, 0x20, 0x30});
  Bytes Frame = sealFrame(Payload);

  // Exact-length frame: tolerant mode reports zero trailing bytes.
  size_t Trailing = 1234;
  FrameError Err = FrameError::BadMagic;
  auto Opened = openFrame(Frame, &Err, &Trailing);
  ASSERT_TRUE(Opened.has_value());
  EXPECT_EQ(copyOf(*Opened), Payload);
  EXPECT_EQ(Err, FrameError::None);
  EXPECT_EQ(Trailing, 0u);

  // Junk appended past the declared length: accepted, payload sliced to
  // the declared length (the junk never reaches the decoder), and the
  // excess is reported for the net.frames_trailing_bytes counter.
  Bytes Padded = Frame;
  for (uint8_t J : {0xDE, 0xAD, 0xBE, 0xEF, 0x00})
    Padded.push_back(J);
  Trailing = 0;
  Err = FrameError::BadMagic;
  Opened = openFrame(Padded, &Err, &Trailing);
  ASSERT_TRUE(Opened.has_value());
  EXPECT_EQ(copyOf(*Opened), Payload);
  EXPECT_EQ(Err, FrameError::None);
  EXPECT_EQ(Trailing, 5u);

  // The trailing bytes are excluded from checksum verification: damaging
  // them must not turn a valid frame into BadChecksum.
  Bytes Damaged = Padded;
  Damaged.back() ^= 0xFF;
  EXPECT_TRUE(openFrame(Damaged, nullptr, &Trailing).has_value());
  EXPECT_EQ(Trailing, 5u);

  // A buffer shorter than declared is still BadLength in tolerant mode,
  // and the out-param resets to zero on the reject path.
  Bytes Short = Frame;
  Short.pop_back();
  Trailing = 77;
  Err = FrameError::None;
  EXPECT_FALSE(openFrame(Short, &Err, &Trailing).has_value());
  EXPECT_EQ(Err, FrameError::BadLength);
  EXPECT_EQ(Trailing, 0u);
}

TEST(Frame, ErrorNamesAreDistinct) {
  EXPECT_STREQ(frameErrorName(FrameError::None), "none");
  EXPECT_STREQ(frameErrorName(FrameError::Truncated), "truncated");
  EXPECT_STREQ(frameErrorName(FrameError::BadMagic), "bad magic");
  EXPECT_STREQ(frameErrorName(FrameError::BadVersion), "bad version");
  EXPECT_STREQ(frameErrorName(FrameError::BadLength), "bad length");
  EXPECT_STREQ(frameErrorName(FrameError::Oversized), "oversized");
  EXPECT_STREQ(frameErrorName(FrameError::BadChecksum), "bad checksum");
}

TEST(Frame, ErrPointerIsOptional) {
  Bytes F = sealFrame(bytes({9}));
  F[0] = 0;
  EXPECT_FALSE(openFrame(F).has_value()); // Must not dereference null.
}

} // namespace
