// Software IEEE-754 binary16 ("half") emulation.
//
// The Jigsaw kernels compute in fp16 with fp32 accumulation, matching the
// behaviour of Ampere tensor-core HMMA with float accumulators. This type
// stores the 16-bit pattern and converts to/from float with
// round-to-nearest-even, the rounding mode the hardware uses.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace jigsaw {

/// 16-bit IEEE-754 binary16 value. Trivially copyable; arithmetic is done
/// by converting to float, so use fp16_t for *storage* and float/double for
/// accumulation, exactly as a tensor-core kernel would.
class fp16_t {
 public:
  constexpr fp16_t() = default;
  /// Converts from float with round-to-nearest-even (ties to even).
  explicit fp16_t(float v) : bits_(float_to_bits(v)) {}

  /// Reinterprets a raw 16-bit pattern as an fp16 value.
  static constexpr fp16_t from_bits(std::uint16_t bits) {
    fp16_t h;
    h.bits_ = bits;
    return h;
  }

  /// Converts to float (exact: every binary16 value is representable).
  explicit operator float() const { return bits_to_float(bits_); }

  constexpr std::uint16_t bits() const { return bits_; }

  constexpr bool is_zero() const { return (bits_ & 0x7fffu) == 0; }

  friend constexpr bool operator==(fp16_t a, fp16_t b) {
    // Bitwise equality except both zeros compare equal; NaNs compare by bits,
    // which is what the storage-format round-trip tests want.
    if (a.is_zero() && b.is_zero()) return true;
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(fp16_t a, fp16_t b) { return !(a == b); }

  static std::uint16_t float_to_bits(float v);

  /// Exact widening, inline: every staged RHS element and A tile value
  /// takes it. Exponent and mantissa shift into float position; normals
  /// rebias by 112, Inf/NaN by 224 (payload kept), subnormals renormalize
  /// by the leading-zero count. Integer-only, so flush-to-zero modes and
  /// the rest of the floating-point environment cannot change it.
  static float bits_to_float(std::uint16_t bits) {
    const std::uint32_t sign = (bits & 0x8000u) << 16;
    std::uint32_t em = (bits & 0x7fffu) << 13;
    const std::uint32_t exp = em & 0x0f800000u;
    if (exp != 0) {
      em += exp == 0x0f800000u ? 0x70000000u : 0x38000000u;
    } else if (em != 0) {
      // Subnormal: shift the leading one up to the implicit bit (1..10
      // places) and lower the exponent from 2^-14 by as many.
      const auto shift =
          static_cast<std::uint32_t>(std::countl_zero(em) - 8);
      em = ((em << shift) & 0x007fffffu) | ((113u - shift) << 23);
    }
    return std::bit_cast<float>(sign | em);
  }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(fp16_t) == 2, "fp16_t must be 2 bytes");

std::ostream& operator<<(std::ostream& os, fp16_t v);

/// Quantizes a float to the nearest fp16 value and back; used by generators
/// so that every kernel sees inputs that are exactly representable.
inline float quantize_fp16(float v) { return static_cast<float>(fp16_t(v)); }

}  // namespace jigsaw
