// Output checker of the serving benchmark, independent of the library's
// formats and kernels: it keeps its own row-sparse copy of every served
// operand and recomputes products in fp64 straight from the fp16 inputs.
//
// A response entry C(i, j) passes when
//
//   |C(i, j) - sum_k A(i, k) B(k, j)|  <=  K * eps * sum_k |A(i, k)| |B(k, j)|
//
// with eps the fp32 machine epsilon: the bound of an fp32-accumulated dot
// product of exactly representable fp16 products. An all-zero row must
// therefore come back exactly zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fp16.hpp"
#include "matrix/dense.hpp"

namespace servebench {

using jigsaw::DenseMatrix;
using jigsaw::fp16_t;

/// Nonzeros of one operand row (values are fp16 inputs widened exactly).
struct RefRow {
  std::vector<std::uint32_t> col;
  std::vector<float> val;
};

/// Row-sparse mirror of one LHS operand. Rows are shared between mirror
/// generations: applying a delta copies only the rows it touches.
struct RefOperand {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::shared_ptr<const RefRow>> row;

  static RefOperand from_dense(const DenseMatrix<fp16_t>& a);

  struct Edit {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    fp16_t value{};
  };
  /// The operand after `edits` are applied in order (value 0 removes).
  RefOperand with_edits(const std::vector<Edit>& edits) const;

  /// Current value at (r, c), 0 when structurally zero.
  float at(std::size_t r, std::size_t c) const;
};

/// Dense RHS widened to float once (fp16 -> float is exact).
struct RefRhs {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> val;

  static RefRhs from_dense(const DenseMatrix<fp16_t>& b);
  float operator()(std::size_t r, std::size_t c) const {
    return val[r * cols + c];
  }
};

/// fp64 reference value of C(i, j) and its error bound.
struct RefEntry {
  double value = 0;
  double bound = 0;
};
RefEntry reference_entry(const RefOperand& a, const RefRhs& b, std::size_t i,
                         std::size_t j);

inline bool entry_ok(const RefEntry& ref, float got) {
  const double err = static_cast<double>(got) - ref.value;
  return (err <= ref.bound && -err <= ref.bound);
}

/// Checks `count` entries of `c` at positions drawn from `sample_seed`.
/// Returns the number of entries outside their bound.
std::size_t check_sampled(const RefOperand& a, const RefRhs& b,
                          const DenseMatrix<float>& c,
                          std::uint64_t sample_seed, std::size_t count);

/// Checks every entry of `c` against a full fp64 product. Returns the
/// number of entries outside their bound (and of shape mismatches).
std::size_t check_full(const RefOperand& a, const RefRhs& b,
                       const DenseMatrix<float>& c);

/// Shows the checker catches what it must: a correct engine product
/// passes; the same product with one entry perturbed, and the product of
/// a transposed RHS, both fail. Writes a one-line account to `report`.
bool checker_self_test(std::string& report);

}  // namespace servebench
