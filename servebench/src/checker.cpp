#include "checker.hpp"

#include <cfloat>
#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "dlmc/suite.hpp"
#include "engine/engine.hpp"

namespace servebench {

RefOperand RefOperand::from_dense(const DenseMatrix<fp16_t>& a) {
  RefOperand op;
  op.rows = a.rows();
  op.cols = a.cols();
  op.row.reserve(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto row = std::make_shared<RefRow>();
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c).is_zero()) continue;
      row->col.push_back(static_cast<std::uint32_t>(c));
      row->val.push_back(static_cast<float>(a(r, c)));
    }
    op.row.push_back(std::move(row));
  }
  return op;
}

RefOperand RefOperand::with_edits(const std::vector<Edit>& edits) const {
  // Materialize each touched row as an ordered map, apply the edits in
  // order (later entries win, as in Engine::update), then re-pack.
  std::map<std::uint32_t, std::map<std::uint32_t, float>> touched;
  for (const Edit& e : edits) {
    auto it = touched.find(e.row);
    if (it == touched.end()) {
      std::map<std::uint32_t, float>& m = touched[e.row];
      const RefRow& old = *row[e.row];
      for (std::size_t i = 0; i < old.col.size(); ++i) {
        m[old.col[i]] = old.val[i];
      }
      it = touched.find(e.row);
    }
    if (e.value.is_zero()) {
      it->second.erase(e.col);
    } else {
      it->second[e.col] = static_cast<float>(e.value);
    }
  }
  RefOperand next = *this;
  for (const auto& [r, entries] : touched) {
    auto packed = std::make_shared<RefRow>();
    for (const auto& [c, v] : entries) {
      packed->col.push_back(c);
      packed->val.push_back(v);
    }
    next.row[r] = std::move(packed);
  }
  return next;
}

float RefOperand::at(std::size_t r, std::size_t c) const {
  const RefRow& rr = *row[r];
  for (std::size_t i = 0; i < rr.col.size(); ++i) {
    if (rr.col[i] == c) return rr.val[i];
  }
  return 0.0f;
}

RefRhs RefRhs::from_dense(const DenseMatrix<fp16_t>& b) {
  RefRhs ref;
  ref.rows = b.rows();
  ref.cols = b.cols();
  ref.val.resize(b.rows() * b.cols());
  for (std::size_t i = 0; i < ref.val.size(); ++i) {
    ref.val[i] = static_cast<float>(b.data()[i]);
  }
  return ref;
}

namespace {

double bound_of(double abs_sum, std::size_t k) {
  return static_cast<double>(k) * static_cast<double>(FLT_EPSILON) * abs_sum;
}

}  // namespace

RefEntry reference_entry(const RefOperand& a, const RefRhs& b, std::size_t i,
                         std::size_t j) {
  const RefRow& row = *a.row[i];
  double sum = 0, abs_sum = 0;
  for (std::size_t t = 0; t < row.col.size(); ++t) {
    const double p = static_cast<double>(row.val[t]) *
                     static_cast<double>(b(row.col[t], j));
    sum += p;
    abs_sum += std::fabs(p);
  }
  return RefEntry{sum, bound_of(abs_sum, a.cols)};
}

std::size_t check_sampled(const RefOperand& a, const RefRhs& b,
                          const DenseMatrix<float>& c,
                          std::uint64_t sample_seed, std::size_t count) {
  if (c.rows() != a.rows || c.cols() != b.cols || a.cols != b.rows) {
    return count;
  }
  jigsaw::Rng rng(sample_seed);
  std::size_t bad = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t i = rng.next_below(c.rows());
    const std::size_t j = rng.next_below(c.cols());
    if (!entry_ok(reference_entry(a, b, i, j), c(i, j))) ++bad;
  }
  return bad;
}

std::size_t check_full(const RefOperand& a, const RefRhs& b,
                       const DenseMatrix<float>& c) {
  if (c.rows() != a.rows || c.cols() != b.cols || a.cols != b.rows) {
    return c.rows() * c.cols() + 1;
  }
  // Row-by-row fp64 product: every A(i, k) B(k, j) term in k order; zero
  // terms of A add nothing to either sum and are skipped.
  const std::size_t n = b.cols;
  std::vector<double> sum(n), abs_sum(n);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.rows; ++i) {
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(abs_sum.begin(), abs_sum.end(), 0.0);
    const RefRow& row = *a.row[i];
    for (std::size_t t = 0; t < row.col.size(); ++t) {
      const double av = row.val[t];
      const float* brow = &b.val[row.col[t] * n];
      for (std::size_t j = 0; j < n; ++j) {
        const double p = av * static_cast<double>(brow[j]);
        sum[j] += p;
        abs_sum[j] += std::fabs(p);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!entry_ok(RefEntry{sum[j], bound_of(abs_sum[j], a.cols)}, c(i, j))) {
        ++bad;
      }
    }
  }
  return bad;
}

bool checker_self_test(std::string& report) {
  constexpr std::size_t kDim = 256;
  const auto a = jigsaw::dlmc::make_lhs({kDim, kDim}, 0.9, 4).values();
  const auto b = jigsaw::dlmc::make_rhs(kDim, kDim);
  DenseMatrix<fp16_t> bt(kDim, kDim);
  for (std::size_t r = 0; r < kDim; ++r) {
    for (std::size_t c = 0; c < kDim; ++c) bt(r, c) = b(c, r);
  }
  jigsaw::EngineConfig config;
  config.worker_threads = 1;
  jigsaw::Engine engine(config);
  auto handle = engine.compile(a);
  if (!handle.ok()) {
    report = "self-test compile failed: " + handle.status().to_string();
    return false;
  }
  auto good = engine.execute(*handle.value(), b);
  auto transposed = engine.execute(*handle.value(), bt);
  if (!good.ok() || !transposed.ok()) {
    report = "self-test execute failed";
    return false;
  }
  const RefOperand ref_a = RefOperand::from_dense(a);
  const RefRhs ref_b = RefRhs::from_dense(b);

  DenseMatrix<float> perturbed = good.value();
  const std::size_t pi = 97, pj = 13;
  perturbed(pi, pj) += 1e-3f * (1.0f + std::fabs(perturbed(pi, pj)));

  const std::size_t good_full = check_full(ref_a, ref_b, good.value());
  const std::size_t good_sampled =
      check_sampled(ref_a, ref_b, good.value(), 7, 64);
  const std::size_t perturbed_full = check_full(ref_a, ref_b, perturbed);
  const std::size_t transposed_full =
      check_full(ref_a, ref_b, transposed.value());
  const std::size_t transposed_sampled =
      check_sampled(ref_a, ref_b, transposed.value(), 7, 64);
  const bool ok = good_full == 0 && good_sampled == 0 && perturbed_full == 1 &&
                  transposed_full > 0 && transposed_sampled > 0;
  report = "checker self-test " + std::string(ok ? "passed" : "FAILED") +
           ": correct product " + std::to_string(good_full) +
           " bad entries (sampled " + std::to_string(good_sampled) +
           "/64), one perturbed entry " + std::to_string(perturbed_full) +
           " bad, transposed RHS " + std::to_string(transposed_full) +
           " bad (sampled " + std::to_string(transposed_sampled) + "/64)";
  return ok;
}

}  // namespace servebench
