//===- framefuzz.cpp - Deterministic wire-frame/decoder fuzzer ------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Seed-driven mutation fuzzing of the frame layer and the stream-message
// decoder (see docs/PROTOCOL.md). Each iteration builds a random but valid
// stream message, seals it into a frame, and then attacks it one of four
// ways:
//
//  * frame mutation  — damage the sealed frame (bit flips, truncation,
//    growth, header tampering); openFrame() must reject it with a
//    specific FrameError, never crash, never over-read.
//  * payload mutation — damage the payload and re-seal with a correct
//    checksum, modelling a buggy-but-honest sender; openFrame() must
//    accept, and decodeMessage() must either decode or reject cleanly.
//    Anything it decodes must survive an encode/decode round trip.
//  * trailing append — junk bytes appended past a valid sealed frame;
//    strict openFrame() must reject with BadLength, the tolerant mode
//    (TrailingBytes out-param) must open to the exact original payload
//    and report the appended byte count.
//  * raw garbage     — random bytes of random length; must be rejected.
//
// Everything is a pure function of --seed, so a failing run reproduces
// exactly. CI runs this under ASan/UBSan; any sanitizer finding, crash,
// or tally violation fails the build.
//
//   framefuzz --frames 10000 --seed 1
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/stream/Messages.h"
#include "promises/support/Rng.h"
#include "promises/wire/Frame.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace promises;
using namespace promises::stream;

namespace {

wire::Bytes randomBytes(Rng &R, size_t Max) {
  wire::Bytes B(R.below(Max + 1));
  for (uint8_t &Byte : B)
    Byte = static_cast<uint8_t>(R.next());
  return B;
}

std::string randomString(Rng &R, size_t Max) {
  std::string S(R.below(Max + 1), '\0');
  for (char &C : S)
    C = static_cast<char>('a' + R.below(26));
  return S;
}

/// A random but well-formed stream message: the corpus from which every
/// mutation starts, covering all three message kinds and both empty and
/// populated vectors/strings.
Message randomMessage(Rng &R) {
  switch (R.below(3)) {
  case 0: {
    CallBatchMsg M;
    M.Agent = R.next();
    M.Group = static_cast<GroupId>(R.below(8));
    M.Inc = static_cast<Incarnation>(1 + R.below(4));
    M.AckReplyThrough = R.below(64);
    M.FlushReplies = R.chance(0.5);
    size_t N = R.below(5);
    for (size_t I = 0; I != N; ++I) {
      CallReq C;
      C.S = 1 + R.below(128);
      C.Port = static_cast<PortId>(R.below(16));
      C.NoReply = R.chance(0.25);
      C.FlushReply = R.chance(0.25);
      C.DeadlineNs = R.chance(0.25) ? R.next() : 0;
      C.Args = randomBytes(R, 48);
      M.Calls.push_back(std::move(C));
    }
    return M;
  }
  case 1: {
    ReplyBatchMsg M;
    M.Agent = R.next();
    M.Group = static_cast<GroupId>(R.below(8));
    M.Inc = static_cast<Incarnation>(1 + R.below(4));
    M.AckCallThrough = R.below(128);
    M.CompletedThrough = R.below(M.AckCallThrough + 1);
    M.Broken = R.chance(0.15);
    if (M.Broken) {
      M.BreakIsFailure = R.chance(0.5);
      M.BreakReason = randomString(R, 24);
    }
    size_t N = R.below(5);
    for (size_t I = 0; I != N; ++I) {
      WireReply W;
      W.S = 1 + R.below(128);
      W.Status = static_cast<ReplyStatus>(R.below(4));
      W.ExTag = static_cast<uint32_t>(R.below(8));
      W.Payload = randomBytes(R, 48);
      if (W.Status != ReplyStatus::Normal)
        W.Reason = randomString(R, 24);
      M.Replies.push_back(std::move(W));
    }
    return M;
  }
  default: {
    CancelMsg M;
    M.Agent = R.next();
    M.Group = static_cast<GroupId>(R.below(8));
    M.Inc = static_cast<Incarnation>(1 + R.below(4));
    size_t N = R.below(6);
    for (size_t I = 0; I != N; ++I)
      M.Seqs.push_back(1 + R.below(256));
    return M;
  }
  }
}

/// Damages \p B in place and guarantees the result differs from the
/// original (a no-op "mutation" would make the must-reject expectation
/// wrong).
void mutateBytes(Rng &R, wire::Bytes &B) {
  for (;;) {
    switch (R.below(4)) {
    case 0: { // Flip 1..8 bits.
      if (B.empty())
        continue;
      uint64_t Bits = 1 + R.below(8);
      for (uint64_t I = 0; I != Bits; ++I) {
        uint64_t Pos = R.below(B.size() * 8);
        B[Pos / 8] ^= static_cast<uint8_t>(1u << (Pos % 8));
      }
      return;
    }
    case 1: { // Truncate.
      if (B.empty())
        continue;
      B.resize(R.below(B.size()));
      return;
    }
    case 2: { // Grow with random bytes.
      size_t Extra = 1 + R.below(16);
      for (size_t I = 0; I != Extra; ++I)
        B.push_back(static_cast<uint8_t>(R.next()));
      return;
    }
    default: { // Overwrite a random window.
      if (B.empty())
        continue;
      size_t Off = R.below(B.size());
      size_t Len = 1 + R.below(std::min<size_t>(B.size() - Off, 8));
      bool Changed = false;
      for (size_t I = 0; I != Len; ++I) {
        uint8_t Old = B[Off + I];
        B[Off + I] = static_cast<uint8_t>(R.next());
        Changed |= B[Off + I] != Old;
      }
      if (Changed)
        return;
      continue; // Unlucky identity overwrite; try again.
    }
    }
  }
}

struct Tally {
  uint64_t FrameMutations = 0, PayloadMutations = 0, Garbage = 0;
  uint64_t TrailingAppends = 0;    ///< Junk appended past a valid frame.
  uint64_t Rejected[7] = {}; ///< Indexed by FrameError.
  uint64_t CollisionsSurvived = 0; ///< Damaged frame passed the checksum.
  uint64_t DecodeRejected = 0;     ///< Checksum-valid payload, clean reject.
  uint64_t Decoded = 0;            ///< Checksum-valid payload decoded.
  uint64_t Violations = 0;
};

void violation(Tally &T, uint64_t Frame, const char *What) {
  ++T.Violations;
  std::fprintf(stderr, "framefuzz: VIOLATION at frame %" PRIu64 ": %s\n",
               Frame, What);
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 1, Frames = 10000;
  bool Quiet = false;
  cli::Table Flags = {
      cli::integer("--seed", "S", "mutation seed (default 1)", Seed),
      cli::integer("--frames", "N", "frames to fuzz (default 10000)", Frames,
                   1),
      cli::toggle("--quiet", "print the final line only", Quiet)};
  if (!cli::parse(Argc, Argv, Flags)) {
    cli::usage(Argv[0], Flags);
    return 2;
  }

  Rng R(Seed ^ 0x66757a7aull); // "fuzz"
  Tally T;

  for (uint64_t I = 0; I != Frames; ++I) {
    Message M = randomMessage(R);
    wire::Bytes Payload = encodeMessage(M);
    wire::Bytes Frame = wire::sealFrame(Payload);

    // A sanity anchor: the unmutated frame must always open back to the
    // exact payload. If this ever fails the seal/open pair itself is
    // broken and every other expectation below is meaningless.
    wire::FrameError FE = wire::FrameError::None;
    std::optional<wire::Bytes> Opened = wire::openFrame(Frame, true, &FE);
    if (!Opened || *Opened != Payload) {
      violation(T, I, "pristine frame failed to open");
      continue;
    }

    switch (R.below(4)) {
    case 0: { // Damage the sealed frame.
      ++T.FrameMutations;
      mutateBytes(R, Frame);
      FE = wire::FrameError::None;
      std::optional<wire::Bytes> P = wire::openFrame(Frame, true, &FE);
      if (!P) {
        if (FE == wire::FrameError::None)
          violation(T, I, "rejected frame carried no error cause");
        else
          ++T.Rejected[static_cast<size_t>(FE)];
        break;
      }
      // The mutation landed so that header + checksum still validate —
      // either it only touched bytes that round-tripped to the same
      // payload (impossible: mutations always change bytes, and every
      // frame byte is covered by a header check or the CRC) or it is a
      // genuine 2^-32 CRC collision. Decode must still be safe.
      ++T.CollisionsSurvived;
      (void)decodeMessage(*P);
      break;
    }
    case 1: { // Damage the payload, then seal honestly.
      ++T.PayloadMutations;
      wire::Bytes Damaged = Payload;
      mutateBytes(R, Damaged);
      wire::Bytes Sealed = wire::sealFrame(Damaged);
      FE = wire::FrameError::None;
      std::optional<wire::Bytes> P = wire::openFrame(Sealed, true, &FE);
      if (!P || *P != Damaged) {
        violation(T, I, "honestly sealed payload failed to open");
        break;
      }
      std::optional<Message> D = decodeMessage(*P);
      if (!D) {
        ++T.DecodeRejected;
        break;
      }
      ++T.Decoded;
      // Whatever the decoder accepted must be a stable value: encoding
      // it and decoding again must reproduce it exactly.
      std::optional<Message> D2 = decodeMessage(encodeMessage(*D));
      if (!D2 || !(*D2 == *D))
        violation(T, I, "decoded message failed canonical round trip");
      break;
    }
    case 2: { // Append junk past a valid frame (datagram padding model).
      ++T.TrailingAppends;
      size_t Extra = 1 + R.below(32);
      wire::Bytes Padded = Frame;
      for (size_t J = 0; J != Extra; ++J)
        Padded.push_back(static_cast<uint8_t>(R.next()));
      // Strict mode: any size mismatch is BadLength, exactly as before.
      FE = wire::FrameError::None;
      if (wire::openFrame(Padded, true, &FE).has_value())
        violation(T, I, "strict openFrame accepted trailing bytes");
      else if (FE != wire::FrameError::BadLength)
        violation(T, I, "trailing bytes rejected with the wrong cause");
      else
        ++T.Rejected[static_cast<size_t>(FE)];
      // Tolerant mode (what a real datagram transport uses): the frame
      // opens to the exact original payload, the junk is dropped and
      // counted, and the checksum never covers the appended bytes.
      size_t Trailing = 0;
      FE = wire::FrameError::None;
      std::optional<wire::Bytes> P =
          wire::openFrame(Padded, true, &FE, &Trailing);
      if (!P || *P != Payload)
        violation(T, I, "tolerant openFrame failed on trailing bytes");
      else if (Trailing != Extra)
        violation(T, I, "trailing byte count misreported");
      break;
    }
    default: { // Raw garbage.
      ++T.Garbage;
      wire::Bytes Junk = randomBytes(R, 64);
      FE = wire::FrameError::None;
      std::optional<wire::Bytes> P = wire::openFrame(Junk, true, &FE);
      if (!P) {
        if (FE == wire::FrameError::None)
          violation(T, I, "rejected garbage carried no error cause");
        else
          ++T.Rejected[static_cast<size_t>(FE)];
        break;
      }
      // Only a byte-exact valid frame can get here (~2^-80 for random
      // bytes); decoding it must still be safe.
      (void)decodeMessage(*P);
      break;
    }
    }
  }

  if (!Quiet) {
    std::printf("mutated frames:   %" PRIu64 "\n", T.FrameMutations);
    std::printf("mutated payloads: %" PRIu64 " (decoded %" PRIu64
                ", rejected %" PRIu64 ")\n",
                T.PayloadMutations, T.Decoded, T.DecodeRejected);
    std::printf("trailing appends: %" PRIu64 "\n", T.TrailingAppends);
    std::printf("garbage frames:   %" PRIu64 "\n", T.Garbage);
    std::printf("rejections by cause:\n");
    for (size_t I = 1; I != 7; ++I)
      std::printf("  %-12s %" PRIu64 "\n",
                  wire::frameErrorName(static_cast<wire::FrameError>(I)),
                  T.Rejected[I]);
    if (T.CollisionsSurvived)
      std::printf("checksum collisions survived: %" PRIu64 "\n",
                  T.CollisionsSurvived);
  }
  std::printf("%" PRIu64 " frames fuzzed, %" PRIu64 " violations [seed %"
              PRIu64 "]\n",
              Frames, T.Violations, Seed);
  return T.Violations == 0 ? 0 : 1;
}
