//===- support_test.cpp - Support-library unit tests ----------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/support/InlineFunction.h"
#include "promises/support/Rng.h"
#include "promises/support/Stats.h"
#include "promises/support/StrUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>

using namespace promises;

namespace {

TEST(Rng, SameSeedSameStream) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.below(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    uint64_t V = R.between(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I) {
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng R(17);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng R(19);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    if (R.chance(0.3))
      ++Hits;
  EXPECT_GT(Hits, 2700);
  EXPECT_LT(Hits, 3300);
}

TEST(Rng, SplitGivesIndependentStream) {
  Rng A(23);
  Rng B = A.split();
  // The child stream differs from the parent's continuation.
  bool AnyDiff = false;
  for (int I = 0; I < 16; ++I)
    if (A.next() != B.next())
      AnyDiff = true;
  EXPECT_TRUE(AnyDiff);
}

TEST(Stats, EmptyDefaults) {
  Stats S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.min(), 0.0);
  EXPECT_EQ(S.max(), 0.0);
  EXPECT_EQ(S.percentile(50), 0.0);
}

TEST(Stats, BasicMoments) {
  Stats S;
  for (double V : {1.0, 2.0, 3.0, 4.0})
    S.add(V);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_EQ(S.sum(), 10.0);
  EXPECT_EQ(S.mean(), 2.5);
  EXPECT_EQ(S.min(), 1.0);
  EXPECT_EQ(S.max(), 4.0);
}

TEST(Stats, PercentilesNearestRank) {
  Stats S;
  for (int I = 1; I <= 100; ++I)
    S.add(I);
  EXPECT_EQ(S.percentile(0), 1.0);
  EXPECT_EQ(S.percentile(100), 100.0);
  EXPECT_NEAR(S.median(), 50.0, 1.0);
  EXPECT_NEAR(S.percentile(90), 90.0, 1.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Empty: every percentile is 0, not a crash or a read past the end.
  Stats Empty;
  EXPECT_EQ(Empty.percentile(0), 0.0);
  EXPECT_EQ(Empty.percentile(100), 0.0);
  // Single sample: rank (P/100)*(N-1) is 0 for every P, so all
  // percentiles collapse to that one sample.
  Stats One;
  One.add(42.0);
  EXPECT_EQ(One.percentile(0), 42.0);
  EXPECT_EQ(One.percentile(50), 42.0);
  EXPECT_EQ(One.percentile(100), 42.0);
  EXPECT_EQ(One.median(), 42.0);
  // Two samples: P=0 and P=100 hit the exact extremes.
  Stats Two;
  Two.add(-3.0);
  Two.add(7.0);
  EXPECT_EQ(Two.percentile(0), -3.0);
  EXPECT_EQ(Two.percentile(100), 7.0);
}

TEST(Stats, AddAfterPercentileResorts) {
  Stats S;
  S.add(5.0);
  EXPECT_EQ(S.median(), 5.0);
  S.add(1.0);
  S.add(9.0);
  EXPECT_EQ(S.median(), 5.0);
  EXPECT_EQ(S.min(), 1.0);
}

TEST(Stats, PercentileAndMedianAreConst) {
  Stats S;
  for (int I = 1; I <= 10; ++I)
    S.add(I);
  // percentile/median are callable through a const reference: the sort
  // cache is an implementation detail (mutable), not part of the
  // observable state.
  const Stats &C = S;
  EXPECT_EQ(C.median(), C.percentile(50));
  EXPECT_EQ(C.percentile(0), 1.0);
  EXPECT_EQ(C.percentile(100), 10.0);
}

TEST(StrUtil, FormatDurationUnits) {
  EXPECT_EQ(formatDuration(5), "5ns");
  EXPECT_EQ(formatDuration(1500), "1.50us");
  EXPECT_EQ(formatDuration(2500000), "2.50ms");
  EXPECT_EQ(formatDuration(3200000000ull), "3.200s");
}

TEST(StrUtil, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(StrUtil, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtil, Strprintf) {
  EXPECT_EQ(strprintf("x=%d y=%s", 7, "ok"), "x=7 y=ok");
  EXPECT_EQ(strprintf("%s", ""), "");
  std::string Big(300, 'a');
  EXPECT_EQ(strprintf("%s", Big.c_str()), Big);
}

TEST(StrUtil, StrprintfAroundTheStackBuffer) {
  // The output fits the 256-byte stack buffer up to 255 characters (plus
  // the NUL); from 256 on it is formatted a second time, into the string.
  for (size_t N : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                   size_t{257}, size_t{1024}, size_t{5000}}) {
    std::string Body(N, 'x');
    for (size_t I = 0; I < N; I += 7)
      Body[I] = static_cast<char>('a' + I % 26);
    EXPECT_EQ(strprintf("%s", Body.c_str()), Body) << N;
    // Arguments after a long one must still be consumed correctly on the
    // second pass.
    std::string Want = "<" + Body + "|" + std::to_string(N) + "|end>";
    EXPECT_EQ(strprintf("<%s|%zu|%s>", Body.c_str(), N, "end"), Want) << N;
  }
  EXPECT_EQ(strprintf("%*d", 300, 7), std::string(299, ' ') + "7");
}

//===----------------------------------------------------------------------===//
// InlineFunction
//===----------------------------------------------------------------------===//

/// Counts live instances and destructions of a capture of \p Pad bytes.
template <size_t Pad> struct Tracked {
  static inline int Live = 0;
  static inline int Constructed = 0;
  static inline int Destroyed = 0;
  std::array<char, Pad> Bytes{};
  int Id = 0;

  explicit Tracked(int Id) : Id(Id) { born(); }
  Tracked(const Tracked &O) : Bytes(O.Bytes), Id(O.Id) { born(); }
  Tracked(Tracked &&O) noexcept : Bytes(O.Bytes), Id(O.Id) { born(); }
  ~Tracked() {
    --Live;
    ++Destroyed;
  }
  static void born() {
    ++Live;
    ++Constructed;
  }
  static void reset() { Live = Constructed = Destroyed = 0; }
};

using Small = Tracked<8>; // Stored inline.
using Large = Tracked<64>; // Over InlineFunctionBytes: on the heap.

static_assert(InlineFunction<void()>::fitsInline<Small>);
static_assert(!InlineFunction<void()>::fitsInline<Large>);

TEST(InlineFunction, CallsForwardArgumentsAndResults) {
  int Sum = 0;
  InlineFunction<int(int, const std::string &)> Add =
      [&Sum](int X, const std::string &S) {
        Sum += X;
        return X + static_cast<int>(S.size());
      };
  EXPECT_EQ(Add(3, "abcd"), 7);
  EXPECT_EQ(Sum, 3);
  // Move-only arguments and mutable state.
  InlineFunction<int(std::unique_ptr<int>)> Acc =
      [Total = 0](std::unique_ptr<int> P) mutable { return Total += *P; };
  EXPECT_EQ(Acc(std::make_unique<int>(2)), 2);
  EXPECT_EQ(Acc(std::make_unique<int>(5)), 7);
  // A callable returning a value may back a void signature.
  InlineFunction<void()> Discard = [] { return 42; };
  Discard();
  EXPECT_FALSE(InlineFunction<void()>());
  EXPECT_FALSE(InlineFunction<void()>(nullptr));
  void (*Null)() = nullptr;
  EXPECT_FALSE(InlineFunction<void()>(Null));
}

template <typename Capture> void checkMoveEmptiesTheSource() {
  Capture::reset();
  {
    int Seen = 0;
    InlineFunction<void()> A = [C = Capture(7), &Seen] { Seen = C.Id; };
    EXPECT_EQ(Capture::Live, 1);
    InlineFunction<void()> B = std::move(A);
    EXPECT_FALSE(A); // NOLINT: moved-from state is specified.
    ASSERT_TRUE(B);
    EXPECT_EQ(Capture::Live, 1);
    B();
    EXPECT_EQ(Seen, 7);
    InlineFunction<void()> C;
    C = std::move(B);
    EXPECT_FALSE(B); // NOLINT
    ASSERT_TRUE(C);
    Seen = 0;
    C();
    EXPECT_EQ(Seen, 7);
  }
  EXPECT_EQ(Capture::Live, 0);
}

TEST(InlineFunction, MoveEmptiesTheSource) {
  checkMoveEmptiesTheSource<Small>();
  checkMoveEmptiesTheSource<Large>();
}

template <typename Capture> void checkCapturesDestroyedOnce() {
  Capture::reset();
  for (bool ByReset : {false, true}) {
    {
      InlineFunction<void()> F = [C = Capture(1)] { (void)C; };
      int Base = Capture::Destroyed; // After the lambda's own temporaries.
      InlineFunction<void()> G = std::move(F);
      InlineFunction<void()> H;
      H = std::move(G);
      H();
      EXPECT_EQ(Capture::Live, 1);
      // An inline capture is moved and its source destroyed at each
      // relocation; a heap capture never moves.
      EXPECT_EQ(Capture::Destroyed - Base,
                InlineFunction<void()>::fitsInline<Capture> ? 2 : 0);
      Base = Capture::Destroyed;
      if (ByReset) {
        H = nullptr;
        EXPECT_EQ(Capture::Live, 0);
        EXPECT_EQ(Capture::Destroyed, Base + 1);
      }
    }
    EXPECT_EQ(Capture::Live, 0); // Destroyed by ~InlineFunction otherwise.
    EXPECT_EQ(Capture::Constructed, Capture::Destroyed);
  }
}

TEST(InlineFunction, CapturesAreDestroyedExactlyOnce) {
  checkCapturesDestroyedOnce<Small>();
  checkCapturesDestroyedOnce<Large>();
}

TEST(InlineFunction, ReassignmentReplacesTheCallable) {
  Small::reset();
  Large::reset();
  std::string Log;
  InlineFunction<void()> F = [S = Small(1), &Log] { Log += "s"; };
  F();
  F = [L = Large(2), &Log] { Log += "L"; }; // Inline -> heap.
  EXPECT_EQ(Small::Live, 0);
  EXPECT_EQ(Large::Live, 1);
  F();
  F = [&Log] { Log += "p"; }; // Heap -> trivially copyable inline.
  EXPECT_EQ(Large::Live, 0);
  F();
  InlineFunction<void()> G = [S = Small(3), &Log] { Log += "g"; };
  F = std::move(G);
  F();
  InlineFunction<void()> &Self = F;
  F = std::move(Self); // Self-move keeps the callable.
  ASSERT_TRUE(F);
  F();
  F = nullptr;
  EXPECT_FALSE(F);
  EXPECT_EQ(Small::Live, 0);
  EXPECT_EQ(Log, "sLpgg");
}

} // namespace
