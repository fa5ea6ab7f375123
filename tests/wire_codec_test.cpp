//===- wire_codec_test.cpp - External representation tests ----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/wire/Codec.h"

#include <gtest/gtest.h>

#include <limits>

using namespace promises::wire;

namespace {

template <Transmissible T> T roundTrip(const T &V) {
  auto B = encodeToBytes(V);
  EXPECT_TRUE(B.has_value());
  auto Out = decodeFromBytes<T>(*B);
  EXPECT_TRUE(Out.has_value());
  return Out ? *Out : T{};
}

TEST(WireCodec, ScalarRoundTrips) {
  EXPECT_EQ(roundTrip(true), true);
  EXPECT_EQ(roundTrip(false), false);
  EXPECT_EQ(roundTrip<uint8_t>(0xab), 0xab);
  EXPECT_EQ(roundTrip<uint16_t>(0xbeef), 0xbeef);
  EXPECT_EQ(roundTrip<uint32_t>(0xdeadbeef), 0xdeadbeefu);
  EXPECT_EQ(roundTrip<uint64_t>(0x0123456789abcdefull), 0x0123456789abcdefull);
  EXPECT_EQ(roundTrip<int32_t>(-17), -17);
  EXPECT_EQ(roundTrip<int32_t>(std::numeric_limits<int32_t>::min()),
            std::numeric_limits<int32_t>::min());
  EXPECT_EQ(roundTrip<int64_t>(-123456789012345ll), -123456789012345ll);
}

TEST(WireCodec, DoubleRoundTripsExactly) {
  EXPECT_EQ(roundTrip(3.25), 3.25);
  EXPECT_EQ(roundTrip(-0.0), 0.0);
  EXPECT_EQ(roundTrip(1e300), 1e300);
  double Nan = roundTrip(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(Nan != Nan);
}

TEST(WireCodec, StringRoundTrips) {
  EXPECT_EQ(roundTrip(std::string("")), "");
  EXPECT_EQ(roundTrip(std::string("hello")), "hello");
  std::string WithNul("a\0b", 3);
  EXPECT_EQ(roundTrip(WithNul), WithNul);
  std::string Big(10000, 'x');
  EXPECT_EQ(roundTrip(Big), Big);
}

TEST(WireCodec, VectorRoundTrips) {
  std::vector<int32_t> V{1, -2, 3, -4};
  EXPECT_EQ(roundTrip(V), V);
  std::vector<std::string> Names{"ann", "bob", ""};
  EXPECT_EQ(roundTrip(Names), Names);
  std::vector<int32_t> Empty;
  EXPECT_EQ(roundTrip(Empty), Empty);
}

TEST(WireCodec, NestedCompositeRoundTrips) {
  std::vector<std::pair<std::string, double>> Grades{
      {"ann", 91.5}, {"bob", 76.0}};
  EXPECT_EQ(roundTrip(Grades), Grades);
  std::optional<std::vector<int32_t>> Some{{1, 2, 3}};
  EXPECT_EQ(roundTrip(Some), Some);
  std::optional<std::vector<int32_t>> None;
  EXPECT_EQ(roundTrip(None), None);
}

TEST(WireCodec, TupleRoundTripsInOrder) {
  std::tuple<std::string, int32_t, double> T{"stu", 7, 88.25};
  EXPECT_EQ(roundTrip(T), T);
}

TEST(WireCodec, ValuesEncodeExactlyAsTheirTuple) {
  // RemoteHandler encodes call arguments from the caller's values; the
  // bytes must be the argument tuple's, including an unsized element and
  // a failing one.
  std::string S(40, 'q');
  std::vector<std::pair<std::string, double>> V{{"ann", 91.5}};
  auto Tuple = encodeToBytes(std::make_tuple(S, int32_t{-7}, V, Unit{}));
  auto Values = encodeValuesToBytes<std::string, int32_t, decltype(V), Unit>(
      nullptr, S, -7, V, Unit{});
  ASSERT_TRUE(Tuple && Values);
  EXPECT_EQ(*Values, *Tuple);
  Fragile Bad;
  Bad.FailEncode = true;
  std::string TupleWhy, ValuesWhy;
  EXPECT_FALSE(encodeToBytes(std::make_tuple(S, Bad), &TupleWhy));
  EXPECT_FALSE((encodeValuesToBytes<std::string, Fragile>(&ValuesWhy, S, Bad)));
  EXPECT_EQ(ValuesWhy, TupleWhy);
  EXPECT_FALSE(ValuesWhy.empty());
  auto Empty = encodeValuesToBytes<>(nullptr);
  ASSERT_TRUE(Empty);
  EXPECT_TRUE(Empty->empty());
}

TEST(WireCodec, UnitRoundTrips) {
  auto B = encodeToBytes(Unit{});
  ASSERT_TRUE(B.has_value());
  EXPECT_TRUE(B->empty());
  EXPECT_TRUE(decodeFromBytes<Unit>(*B).has_value());
}

TEST(WireCodec, DecodeFailsOnTruncation) {
  auto B = encodeToBytes(std::string("hello"));
  ASSERT_TRUE(B.has_value());
  for (size_t Cut = 0; Cut < B->size(); ++Cut) {
    Bytes Truncated(B->begin(), B->begin() + static_cast<long>(Cut));
    std::string Reason;
    EXPECT_FALSE(decodeFromBytes<std::string>(Truncated, &Reason).has_value())
        << "cut at " << Cut;
    EXPECT_FALSE(Reason.empty());
  }
}

TEST(WireCodec, DecodeFailsOnTrailingBytes) {
  auto B = encodeToBytes<int32_t>(5);
  ASSERT_TRUE(B.has_value());
  B->push_back(0);
  std::string Reason;
  EXPECT_FALSE(decodeFromBytes<int32_t>(*B, &Reason).has_value());
  EXPECT_EQ(Reason, "trailing bytes after value");
}

TEST(WireCodec, DecodeFailsOnCorruptVectorLength) {
  // A huge length prefix with no elements behind it must fail cleanly
  // without attempting a giant allocation.
  Encoder E;
  E.writeU32(0xffffffffu);
  auto Out = decodeFromBytes<std::vector<int32_t>>(E.bytes());
  EXPECT_FALSE(Out.has_value());
}

TEST(WireCodec, HostileLengthsAreRejectedBeforeAllocation) {
  // The explicit bounds (MaxStringBytes, MaxSequenceElems) reject hostile
  // length prefixes up front with a specific reason — the decoder never
  // sizes a buffer from an unvalidated length, even when the declared
  // length exceeds the bytes actually present.
  {
    Encoder E;
    E.writeU32(MaxStringBytes + 1);
    Decoder D(E.bytes());
    (void)D.readString();
    ASSERT_TRUE(D.failed());
    EXPECT_EQ(D.failReason(), "oversized string");
  }
  {
    Encoder E;
    E.writeU32(MaxStringBytes + 1);
    Decoder D(E.bytes());
    (void)D.readBytes();
    ASSERT_TRUE(D.failed());
    EXPECT_EQ(D.failReason(), "oversized byte sequence");
  }
  {
    // A sequence of zero-byte elements: the truncation check cannot catch
    // this one (every element needs 0 bytes), only the element-count cap
    // can stop the decode loop.
    Encoder E;
    E.writeU32(MaxSequenceElems + 1);
    Decoder D(E.bytes());
    (void)Codec<std::vector<Unit>>::decode(D);
    ASSERT_TRUE(D.failed());
    EXPECT_EQ(D.failReason(), "oversized sequence length");
  }
  {
    // At the boundary the caps do not fire; shortage of bytes is then
    // reported as ordinary truncation.
    Encoder E;
    E.writeU32(MaxStringBytes);
    Decoder D(E.bytes());
    (void)D.readString();
    ASSERT_TRUE(D.failed());
    EXPECT_NE(D.failReason(), "oversized string");
  }
}

TEST(WireCodec, MaxBoundsRoundTripAtModestSizes) {
  // Values comfortably under the caps flow unchanged.
  std::string S(1024, 'x');
  EXPECT_EQ(roundTrip(S), S);
  std::vector<uint8_t> V(2048, 0x5A);
  EXPECT_EQ(roundTrip(V), V);
}

TEST(WireCodec, StickyDecoderFailure) {
  Bytes Empty;
  Decoder D(Empty);
  (void)D.readU32();
  EXPECT_TRUE(D.failed());
  // Later reads stay inert and the first reason is preserved.
  std::string First = D.failReason();
  (void)D.readU64();
  (void)D.readString();
  EXPECT_EQ(D.failReason(), First);
}

TEST(WireCodec, FragileEncodeFailureIsReported) {
  Fragile F;
  F.FailEncode = true;
  std::string Reason;
  EXPECT_FALSE(encodeToBytes(F, &Reason).has_value());
  EXPECT_EQ(Reason, "user codec refused to encode");
}

TEST(WireCodec, FragileDecodeFailureIsReported) {
  Fragile F;
  F.Value = 42;
  F.FailDecode = true;
  auto B = encodeToBytes(F);
  ASSERT_TRUE(B.has_value());
  std::string Reason;
  EXPECT_FALSE(decodeFromBytes<Fragile>(*B, &Reason).has_value());
  EXPECT_EQ(Reason, "user codec refused to decode");
}

TEST(WireCodec, FragileHappyPathRoundTrips) {
  Fragile F;
  F.Value = 42;
  EXPECT_EQ(roundTrip(F).Value, 42);
}

TEST(WireCodec, EncoderSizeTracksBytes) {
  Encoder E;
  EXPECT_EQ(E.size(), 0u);
  E.writeU32(1);
  EXPECT_EQ(E.size(), 4u);
  E.writeString("abc");
  EXPECT_EQ(E.size(), 4u + 4u + 3u);
}

TEST(WireCodec, FailedEncoderStopsWriting) {
  Encoder E;
  E.writeU32(1);
  E.fail("boom");
  E.writeU64(2);
  EXPECT_TRUE(E.failed());
  EXPECT_EQ(E.failReason(), "boom");
  // writeU8 appends unconditionally only through writeLe guards; the u64
  // write above must not have grown the buffer.
  EXPECT_EQ(E.size(), 4u);
}

} // namespace
