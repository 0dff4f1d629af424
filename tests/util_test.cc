#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>

#include "util/big_int.h"
#include "util/rational.h"
#include "util/random.h"
#include "util/scaled_float.h"
#include "util/status.h"
#include "util/string_util.h"

namespace pdb {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad things");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad things");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad things");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> in) {
  PDB_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Internal("boom")).ok());
}

// ---------------------------------------------------------------------------
// BigInt
// ---------------------------------------------------------------------------

TEST(BigIntTest, SmallArithmetic) {
  BigInt a(123), b(-456);
  EXPECT_EQ((a + b).ToString(), "-333");
  EXPECT_EQ((a - b).ToString(), "579");
  EXPECT_EQ((a * b).ToString(), "-56088");
  EXPECT_EQ((b / a).ToString(), "-3");
  EXPECT_EQ((b % a).ToString(), "-87");
  EXPECT_EQ((-BigInt(456) / BigInt(123) * BigInt(123) +
             (-BigInt(456) % BigInt(123))),
            BigInt(-456));
}

TEST(BigIntTest, Int64Extremes) {
  BigInt min(INT64_MIN);
  EXPECT_EQ(min.ToString(), "-9223372036854775808");
  EXPECT_EQ(*min.ToInt64(), INT64_MIN);
  BigInt max(INT64_MAX);
  EXPECT_EQ(max.ToString(), "9223372036854775807");
  EXPECT_EQ(*max.ToInt64(), INT64_MAX);
  EXPECT_FALSE((max + BigInt(1)).ToInt64().ok());
}

TEST(BigIntTest, LargeMultiplication) {
  // 2^128 = 340282366920938463463374607431768211456.
  BigInt x = BigInt::Pow2(64);
  EXPECT_EQ((x * x).ToString(), "340282366920938463463374607431768211456");
}

TEST(BigIntTest, ParseRoundTrip) {
  const char* text = "-123456789012345678901234567890";
  auto parsed = BigInt::FromString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_FALSE(BigInt::FromString("12x3").ok());
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
}

TEST(BigIntTest, DivisionLarge) {
  auto a = *BigInt::FromString("123456789012345678901234567890");
  auto b = *BigInt::FromString("987654321098765");
  BigInt q = a / b;
  BigInt r = a % b;
  EXPECT_EQ(q * b + r, a);
  EXPECT_TRUE(r >= BigInt(0));
  EXPECT_TRUE(r < b);
}

TEST(BigIntTest, PowAndFactorial) {
  EXPECT_EQ(BigInt(3).Pow(5).ToString(), "243");
  EXPECT_EQ(BigInt(10).Pow(0), BigInt(1));
  EXPECT_EQ(BigInt::Factorial(20).ToString(), "2432902008176640000");
  EXPECT_EQ(BigInt::Factorial(0), BigInt(1));
}

TEST(BigIntTest, Binomial) {
  EXPECT_EQ(BigInt::Binomial(10, 3).ToString(), "120");
  EXPECT_EQ(BigInt::Binomial(50, 25).ToString(), "126410606437752");
  EXPECT_EQ(BigInt::Binomial(5, 9), BigInt(0));
  EXPECT_EQ(BigInt::Binomial(7, 0), BigInt(1));
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(-36)), BigInt(12));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(2), BigInt(10));
  EXPECT_FALSE(BigInt(3) < BigInt(3));
  std::set<BigInt> set{BigInt(3), BigInt(1), BigInt(2)};
  EXPECT_EQ(set.begin()->ToString(), "1");
}

TEST(BigIntTest, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(1000000).ToDouble(), 1e6);
  EXPECT_NEAR(BigInt::Pow2(100).ToDouble(), std::pow(2.0, 100), 1e15);
  EXPECT_DOUBLE_EQ(BigInt(-42).ToDouble(), -42.0);
}

TEST(BigIntTest, TrailingZerosAndShifts) {
  EXPECT_EQ(BigInt(0).TrailingZeroBits(), 0);
  EXPECT_EQ(BigInt(1).TrailingZeroBits(), 0);
  EXPECT_EQ(BigInt(8).TrailingZeroBits(), 3);
  EXPECT_EQ(BigInt::Pow2(70).TrailingZeroBits(), 70);
  EXPECT_EQ((BigInt::Pow2(70) * BigInt(3)).TrailingZeroBits(), 70);
  EXPECT_TRUE(BigInt(1).IsPowerOfTwo());
  EXPECT_TRUE(BigInt::Pow2(97).IsPowerOfTwo());
  EXPECT_FALSE(BigInt(0).IsPowerOfTwo());
  EXPECT_FALSE(BigInt(6).IsPowerOfTwo());
  EXPECT_EQ(BigInt(40).ShiftRight(3), BigInt(5));
  EXPECT_EQ(BigInt::Pow2(100).ShiftRight(64), BigInt::Pow2(36));
  EXPECT_EQ((-BigInt(16)).ShiftRight(2), BigInt(-4));
  EXPECT_EQ(BigInt(5).ShiftRight(10), BigInt(0));
}

TEST(BigRationalTest, DyadicNormalizationFastPath) {
  // 12 / 2^4 = 3/4 through the trailing-zeros path.
  BigRational r(BigInt(12), BigInt::Pow2(4));
  EXPECT_EQ(r.ToString(), "3/4");
  // Huge dyadic values normalize without falling into Euclid.
  BigRational big(BigInt::Pow2(5000) * BigInt(6), BigInt::Pow2(5003));
  EXPECT_EQ(big.ToString(), "3/4");
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0);
  EXPECT_EQ(BigInt(1).BitLength(), 1);
  EXPECT_EQ(BigInt(255).BitLength(), 8);
  EXPECT_EQ(BigInt(256).BitLength(), 9);
  EXPECT_EQ(BigInt::Pow2(97).BitLength(), 98);
}

// ---------------------------------------------------------------------------
// BigRational
// ---------------------------------------------------------------------------

TEST(BigRationalTest, NormalizesToLowestTerms) {
  BigRational r(BigInt(6), BigInt(-8));
  EXPECT_EQ(r.ToString(), "-3/4");
  EXPECT_EQ(BigRational(BigInt(0), BigInt(5)).ToString(), "0");
}

TEST(BigRationalTest, Arithmetic) {
  BigRational half(BigInt(1), BigInt(2));
  BigRational third(BigInt(1), BigInt(3));
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
}

TEST(BigRationalTest, FromDoubleIsExact) {
  BigRational r = BigRational::FromDouble(0.5);
  EXPECT_EQ(r.ToString(), "1/2");
  BigRational x = BigRational::FromDouble(0.1);
  // 0.1 is not exactly 1/10 in binary; conversion must match the double.
  EXPECT_DOUBLE_EQ(x.ToDouble(), 0.1);
}

TEST(BigRationalTest, FromStringForms) {
  EXPECT_EQ(BigRational::FromString("3/9")->ToString(), "1/3");
  EXPECT_EQ(BigRational::FromString("0.25")->ToString(), "1/4");
  EXPECT_EQ(BigRational::FromString("-7")->ToString(), "-7");
  EXPECT_FALSE(BigRational::FromString("1/0").ok());
}

TEST(BigRationalTest, PowAndCompare) {
  BigRational half(BigInt(1), BigInt(2));
  EXPECT_EQ(half.Pow(10).ToString(), "1/1024");
  EXPECT_LT(half.Pow(3), half.Pow(2));
  EXPECT_GT(BigRational(1), half);
}

TEST(BigRationalTest, HugeMagnitudeToDouble) {
  BigRational tiny = BigRational(BigInt(1), BigInt::Pow2(5000));
  EXPECT_EQ(tiny.ToDouble(), 0.0);  // below double range, no NaN/crash
  BigRational ratio(BigInt::Pow2(5000) * BigInt(3), BigInt::Pow2(5001));
  EXPECT_DOUBLE_EQ(ratio.ToDouble(), 1.5);
}

// ---------------------------------------------------------------------------
// ScaledFloat
// ---------------------------------------------------------------------------

TEST(ScaledFloatTest, BasicOps) {
  ScaledFloat a(0.75), b(2.0);
  EXPECT_DOUBLE_EQ((a * b).ToDouble(), 1.5);
  EXPECT_DOUBLE_EQ((a + b).ToDouble(), 2.75);
  EXPECT_DOUBLE_EQ((b - a).ToDouble(), 1.25);
  EXPECT_DOUBLE_EQ((-a).ToDouble(), -0.75);
}

TEST(ScaledFloatTest, ExtremeExponents) {
  ScaledFloat half(0.5);
  ScaledFloat tiny = half.Pow(10000);  // 2^-10000, far below double range
  EXPECT_FALSE(tiny.is_zero());
  EXPECT_NEAR(tiny.Log10Abs(), -10000 * std::log10(2.0), 1e-6);
  ScaledFloat back = tiny * ScaledFloat(2.0).Pow(10000);
  EXPECT_DOUBLE_EQ(back.ToDouble(), 1.0);
}

TEST(ScaledFloatTest, FromBigInt) {
  BigInt big = BigInt::Factorial(100);
  ScaledFloat s = ScaledFloat::FromBigInt(big);
  EXPECT_NEAR(s.Log10Abs(), 157.97, 0.01);  // log10(100!) ~ 157.97
}

TEST(ScaledFloatTest, Division) {
  ScaledFloat a(3.0), b(0.5);
  EXPECT_DOUBLE_EQ((a / b).ToDouble(), 6.0);
  ScaledFloat tiny = ScaledFloat(0.5).Pow(2000);
  ScaledFloat ratio = tiny / tiny;
  EXPECT_DOUBLE_EQ(ratio.ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ((ScaledFloat(0.0) / a).ToDouble(), 0.0);
}

TEST(ScaledFloatTest, AdditionAcrossScales) {
  ScaledFloat big = ScaledFloat(2.0).Pow(300);
  ScaledFloat one(1.0);
  // The tiny addend is dropped (beyond 53-bit precision) without error.
  EXPECT_DOUBLE_EQ((big + one).Log10Abs(), big.Log10Abs());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(13), 13u);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(99);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

// Golden values of one stream, taken before the per-draw methods moved
// inline: Monte Carlo estimates are pinned bit for bit, so the stream they
// draw from must not change.
TEST(RngTest, StreamKeepsItsBits) {
  Rng rng(20201231);
  for (uint64_t expected : {0x69a7282a29aaaca5ULL, 0x5d9136bc892d6aa2ULL,
                            0xe8298acf57ae4571ULL, 0x3914c622f7e15372ULL}) {
    EXPECT_EQ(rng.Next(), expected);
  }
  for (uint64_t expected : {0x3fe0f0f484c73bbcULL, 0x3feddc8d8fa1d9cdULL,
                            0x3fe317cf60501fc6ULL, 0x3fd101c8c66de85aULL}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(rng.NextDouble()), expected);
  }
  // 64 draws per probability, packed low bit first.
  const std::pair<double, uint64_t> bernoulli[] = {
      {0.3, 0x0030659080006011ULL},   {0.5, 0x7a306f6c16a52e93ULL},
      {1e-300, 0x0000000000000000ULL}, {1.0, 0xffffffffffffffffULL},
      {0.0, 0x0000000000000000ULL},
  };
  for (const auto& [p, expected] : bernoulli) {
    uint64_t bits = 0;
    for (int i = 0; i < 64; ++i) bits |= uint64_t{rng.Bernoulli(p)} << i;
    EXPECT_EQ(bits, expected) << "p = " << p;
  }
  // Split derives substreams without advancing the parent.
  EXPECT_EQ(rng.Split(0).Next(), 0x26ac3bd3440a05b2ULL);
  EXPECT_EQ(rng.Split(1).Next(), 0x4f74969008e169f7ULL);
  EXPECT_EQ(rng.Split(63).Next(), 0x2282586f9e223fe4ULL);
  EXPECT_EQ(rng.Next(), 0x564c42590c5cccb2ULL);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitJoinTrim) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(StrTrim("  hello \t"), "hello");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
}

TEST(StringUtilTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("\n"), "\\u000a");
  // Bytes from 0x80 up (a UTF-8 "é" and a lone 0xff) pass through.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \xff"), "caf\xc3\xa9 \xff");
  EXPECT_EQ(JsonEscape(""), "");
}

}  // namespace
}  // namespace pdb
