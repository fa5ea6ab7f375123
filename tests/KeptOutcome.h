//===- KeptOutcome.h - Reply outcomes kept past their callback --*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A ReplyOutcome's payload views the reply frame and is valid only during
// its callback, and an IncomingCall's arguments view the call frame; a test
// that keeps either past that copies the bytes.
//
//===----------------------------------------------------------------------===//

#ifndef PROMISES_TESTS_KEPTOUTCOME_H
#define PROMISES_TESTS_KEPTOUTCOME_H

#include "promises/stream/StreamTransport.h"

#include <string>

namespace promises::stream {

/// An owning copy of bytes a call or reply views in its frame.
inline wire::Bytes copyOf(wire::ByteView V) { return {V.begin(), V.end()}; }

/// A ReplyOutcome with its payload bytes copied out of the frame.
struct KeptOutcome {
  ReplyOutcome::Kind K;
  uint32_t ExTag;
  wire::Bytes Payload;
  std::string Reason;

  KeptOutcome(const ReplyOutcome &O)
      : K(O.K), ExTag(O.ExTag), Payload(O.Payload.begin(), O.Payload.end()),
        Reason(O.Reason) {}
};

} // namespace promises::stream

#endif // PROMISES_TESTS_KEPTOUTCOME_H
