//===- StrUtil.cpp - Small string helpers ---------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/support/StrUtil.h"

#include <cstdarg>
#include <cstdio>

using namespace promises;

std::string promises::formatDuration(uint64_t Nanos) {
  if (Nanos < 1000)
    return strprintf("%lluns", static_cast<unsigned long long>(Nanos));
  if (Nanos < 1000ull * 1000)
    return strprintf("%.2fus", static_cast<double>(Nanos) / 1e3);
  if (Nanos < 1000ull * 1000 * 1000)
    return strprintf("%.2fms", static_cast<double>(Nanos) / 1e6);
  return strprintf("%.3fs", static_cast<double>(Nanos) / 1e9);
}

std::string promises::formatDouble(double Value, int Decimals) {
  return strprintf("%.*f", Decimals, Value);
}

std::string promises::join(const std::vector<std::string> &Parts,
                           const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string promises::strprintf(const char *Fmt, ...) {
  // One pass into a stack buffer covers almost every caller; only longer
  // output is formatted a second time, straight into the string.
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(Buf, sizeof(Buf), Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Needed > 0 && static_cast<size_t>(Needed) < sizeof(Buf)) {
    Out.assign(Buf, static_cast<size_t>(Needed));
  } else if (Needed > 0) {
    // C++11 strings keep a writable terminator slot at data()[size()], so
    // vsnprintf's NUL lands in storage the string owns.
    Out.resize(static_cast<size_t>(Needed));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  }
  va_end(Args);
  return Out;
}
