// Unit tests of the software binary16 type: conversions, rounding mode,
// special values, and round-trip exactness.
#include "common/fp16.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace jigsaw {
namespace {

/// The original loop-normalizing binary16 -> binary32 widening, kept as
/// the reference the inline fp16_t::bits_to_float must match bit for bit.
std::uint32_t reference_widen(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  if (exp == 0) {
    if (mant == 0) return sign;  // +/- 0
    std::uint32_t m = mant;
    std::uint32_t e = 113;
    while ((m & 0x400u) == 0) {
      m <<= 1;
      --e;
    }
    m &= 0x3ffu;
    return sign | (e << 23) | (m << 13);
  }
  if (exp == 0x1f) return sign | 0x7f800000u | (mant << 13);  // Inf / NaN
  return sign | ((exp + 112u) << 23) | (mant << 13);
}

TEST(Fp16, ZeroIsAllBitsClear) {
  EXPECT_EQ(fp16_t(0.0f).bits(), 0u);
  EXPECT_TRUE(fp16_t(0.0f).is_zero());
}

TEST(Fp16, NegativeZeroIsZero) {
  EXPECT_EQ(fp16_t(-0.0f).bits(), 0x8000u);
  EXPECT_TRUE(fp16_t(-0.0f).is_zero());
  EXPECT_EQ(fp16_t(-0.0f), fp16_t(0.0f));
}

TEST(Fp16, SimpleValuesExact) {
  for (const float v : {1.0f, -1.0f, 2.0f, 0.5f, 0.25f, -3.5f, 1024.0f}) {
    EXPECT_EQ(static_cast<float>(fp16_t(v)), v) << v;
  }
}

TEST(Fp16, KnownBitPatterns) {
  EXPECT_EQ(fp16_t(1.0f).bits(), 0x3c00u);
  EXPECT_EQ(fp16_t(-2.0f).bits(), 0xc000u);
  EXPECT_EQ(fp16_t(65504.0f).bits(), 0x7bffu);  // max finite half
  EXPECT_EQ(fp16_t(0x1.0p-14f).bits(), 0x0400u);  // min normal
  EXPECT_EQ(fp16_t(0x1.0p-24f).bits(), 0x0001u);  // min subnormal
}

TEST(Fp16, RoundTripAllBitPatterns) {
  // Every finite half value must survive half -> float -> half exactly.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;  // NaN payloads need not round-trip
    const fp16_t back(f);
    EXPECT_EQ(back.bits(), h.bits()) << "bits=" << bits;
  }
}

TEST(Fp16, WideningMatchesTheReferenceOnAllBitPatterns) {
  // All 65 536 patterns: zeros, subnormals, normals, Inf and every NaN
  // payload, compared as float bit patterns (NaN != NaN as a float).
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const float f =
        fp16_t::bits_to_float(static_cast<std::uint16_t>(bits));
    std::uint32_t got = 0;
    std::memcpy(&got, &f, sizeof(got));
    ASSERT_EQ(got, reference_widen(static_cast<std::uint16_t>(bits)))
        << "bits=0x" << std::hex << bits;
  }
}

TEST(Fp16, RoundToNearestEvenTies) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10):
  // ties-to-even keeps 1.0 (even mantissa).
  EXPECT_EQ(fp16_t(1.0f + 0x1.0p-11f).bits(), fp16_t(1.0f).bits());
  // (1 + 2^-10) + 2^-11 is halfway between two halves whose lower one has
  // an odd mantissa: rounds up to 1 + 2^-9.
  EXPECT_EQ(fp16_t(1.0f + 0x1.0p-10f + 0x1.0p-11f).bits(),
            fp16_t(1.0f + 0x1.0p-9f).bits());
  // Just above the halfway point rounds up.
  EXPECT_EQ(fp16_t(1.0f + 0x1.0p-11f + 0x1.0p-20f).bits(),
            fp16_t(1.0f + 0x1.0p-10f).bits());
}

TEST(Fp16, OverflowToInfinity) {
  EXPECT_EQ(fp16_t(65520.0f).bits(), 0x7c00u);   // rounds to +inf
  EXPECT_EQ(fp16_t(-65520.0f).bits(), 0xfc00u);  // rounds to -inf
  EXPECT_EQ(fp16_t(1e30f).bits(), 0x7c00u);
  EXPECT_TRUE(std::isinf(static_cast<float>(fp16_t(1e30f))));
}

TEST(Fp16, MaxFiniteDoesNotOverflow) {
  EXPECT_EQ(fp16_t(65519.0f).bits(), 0x7bffu);  // rounds down to 65504
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(fp16_t(0x1.0p-26f).bits(), 0u);
  EXPECT_EQ(fp16_t(-0x1.0p-26f).bits(), 0x8000u);
}

TEST(Fp16, SubnormalRounding) {
  // 1.5 * 2^-24 is halfway between subnormals 1 and 2 ulp: even -> 2 ulp.
  EXPECT_EQ(fp16_t(1.5f * 0x1.0p-24f).bits(), 0x0002u);
  // 0.5 * 2^-24 is halfway between 0 and 1 ulp: even -> 0.
  EXPECT_EQ(fp16_t(0.5f * 0x1.0p-24f).bits(), 0x0000u);
}

TEST(Fp16, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fp16_t(inf).bits(), 0x7c00u);
  EXPECT_EQ(fp16_t(-inf).bits(), 0xfc00u);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(static_cast<float>(fp16_t(nan))));
}

TEST(Fp16, QuantizeIdempotent) {
  for (const float v : {0.1f, 0.3333f, 2.7182818f, -123.456f}) {
    const float q = quantize_fp16(v);
    EXPECT_EQ(quantize_fp16(q), q);
    // Quantization error is bounded by half an ulp (~2^-11 relative).
    EXPECT_NEAR(q, v, std::fabs(v) * 0x1.0p-10f);
  }
}

TEST(Fp16, IsZeroOnlyForZeros) {
  EXPECT_FALSE(fp16_t(0x1.0p-24f).is_zero());
  EXPECT_FALSE(fp16_t(1.0f).is_zero());
  EXPECT_TRUE(fp16_t::from_bits(0x0000).is_zero());
  EXPECT_TRUE(fp16_t::from_bits(0x8000).is_zero());
}

}  // namespace
}  // namespace jigsaw
