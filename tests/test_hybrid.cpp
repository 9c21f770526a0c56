// Hybrid-execution extension tests (§4.7): routing decisions, numeric
// equivalence with the reference, and the low-sparsity benefit over the
// pure-SpTC kernel.
#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/checked.hpp"
#include "matrix/reference.hpp"
#include "matrix/vector_sparse.hpp"
#include "sptc/mma_sp.hpp"

namespace jigsaw::core {
namespace {

DenseMatrix<fp16_t> vector_sparse(std::size_t m, std::size_t k, double s,
                                  std::size_t v, std::uint64_t seed) {
  VectorSparseOptions o;
  o.rows = m;
  o.cols = k;
  o.vector_width = v;
  o.sparsity = s;
  o.seed = seed;
  return VectorSparseGenerator::generate(o).values();
}

DenseMatrix<fp16_t> random_b(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  DenseMatrix<fp16_t> b(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  return b;
}

TEST(Hybrid, RoutesDenseAndThinColumns) {
  // Build a matrix with three clearly distinct column populations.
  DenseMatrix<fp16_t> a(32, 64);
  for (std::size_t r = 0; r < 32; ++r) a(r, 0) = fp16_t(1.0f);  // dense
  for (std::size_t r = 0; r < 32; ++r) a(r, 1) = fp16_t(1.0f);  // dense
  a(3, 10) = fp16_t(1.0f);                                      // thin
  a(17, 11) = fp16_t(1.0f);                                     // thin
  for (std::size_t c = 20; c < 40; ++c) {                       // medium
    for (std::size_t r = c % 4; r < 32; r += 5) a(r, c) = fp16_t(0.5f);
  }
  HybridOptions opts;
  opts.tile.block_tile_m = 32;
  const auto plan = hybrid_plan(a, opts);
  ASSERT_EQ(plan.routing.size(), 1u);
  const auto& r = plan.routing[0];
  EXPECT_EQ(r.dense_columns, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(r.cuda_columns, (std::vector<std::uint32_t>{10, 11}));
  EXPECT_EQ(r.cuda_nnz, 2u);
  // Medium columns stay on the SpTC path.
  EXPECT_EQ(plan.format.panels()[0].col_count, 20u);
}

TEST(Hybrid, MatchesReferenceAcrossSparsities) {
  gpusim::CostModel cm;
  for (const double s : {0.5, 0.7, 0.9}) {
    const auto a = vector_sparse(64, 128, s, 4, 7);
    const auto b = random_b(128, 40, 8);
    const auto plan = hybrid_plan(a, {});
    const auto run = hybrid_run(plan, b, cm);
    ASSERT_TRUE(run.c.has_value());
    EXPECT_TRUE(allclose(*run.c, reference_gemm(a, b), a.cols()))
        << "sparsity " << s
        << " max diff " << max_abs_diff(*run.c, reference_gemm(a, b));
  }
}

TEST(Hybrid, MatchesReferenceOnPathologicalMix) {
  // Dense rows + dense columns + singletons in one matrix.
  DenseMatrix<fp16_t> a(48, 96);
  Rng rng(21);
  for (std::size_t c = 0; c < 6; ++c) {  // dense columns
    for (std::size_t r = 0; r < 48; ++r) {
      a(r, c) = fp16_t(rng.uniform(0.1f, 1.0f));
    }
  }
  for (std::size_t c = 6; c < 90; c += 3) {  // medium columns
    for (std::size_t r = c % 7; r < 48; r += 4) {
      a(r, c) = fp16_t(rng.uniform(-1.0f, -0.1f));
    }
  }
  a(5, 95) = fp16_t(2.0f);  // singleton
  const auto b = random_b(96, 17, 22);
  gpusim::CostModel cm;
  HybridOptions opts;
  opts.tile.block_tile_m = 16;
  const auto plan = hybrid_plan(a, opts);
  EXPECT_GT(plan.total_dense_columns(), 0u);
  EXPECT_GT(plan.total_cuda_columns(), 0u);
  const auto run = hybrid_run(plan, b, cm);
  EXPECT_TRUE(allclose(*run.c, reference_gemm(a, b), a.cols()));
}

TEST(Hybrid, AllZeroAndAllDenseEdges) {
  gpusim::CostModel cm;
  DenseMatrix<fp16_t> zeros(32, 64);
  const auto bz = random_b(64, 8, 1);
  const auto plan_z = hybrid_plan(zeros, {});
  const auto run_z = hybrid_run(plan_z, bz, cm);
  for (std::size_t i = 0; i < run_z.c->size(); ++i) {
    EXPECT_EQ(run_z.c->data()[i], 0.0f);
  }

  DenseMatrix<fp16_t> dense(32, 64, fp16_t(0.25f));
  const auto plan_d = hybrid_plan(dense, {});
  // Every column routes to the dense tensor core; the SpTC format is empty.
  // 64 dense columns per 16-row panel, 2 panels.
  EXPECT_EQ(plan_d.total_dense_columns(), 64u * plan_d.routing.size());
  EXPECT_TRUE(plan_d.format.values().empty());
  const auto bd = random_b(64, 8, 2);
  const auto run_d = hybrid_run(plan_d, bd, cm);
  EXPECT_TRUE(allclose(*run_d.c, reference_gemm(dense, bd), dense.cols()));
}

TEST(Hybrid, BeatsPureJigsawAtLowSparsity) {
  // The whole point of §4.7: below ~70% sparsity the pure-SpTC kernel
  // wastes work on dense tiles; the hybrid routes them to dense TCs.
  gpusim::CostModel cm;
  const auto a = vector_sparse(512, 1024, 0.5, 8, 9);
  const auto b = random_b(1024, 256, 10);
  const auto pure = jigsaw_run(jigsaw_plan(a, {}), b, cm,
                               {.compute_values = false});
  const auto hybrid =
      hybrid_run(hybrid_plan(a, {}), b, cm, {.compute_values = false});
  EXPECT_LT(hybrid.report.duration_cycles, pure.report.duration_cycles);
}

TEST(Hybrid, NoRoutingAtHighSparsityMatchesJigsawStructure) {
  // At 95% with v=8 almost everything stays on the SpTC path.
  const auto a = vector_sparse(128, 256, 0.95, 8, 11);
  HybridOptions opts;
  opts.tile.block_tile_m = 64;
  const auto plan = hybrid_plan(a, opts);
  // Only columns with two dense vector slots in one slice route away
  // (~0.25% odds each at 95%): a marginal fraction.
  EXPECT_LT(static_cast<double>(plan.total_dense_columns()),
            0.02 * static_cast<double>(a.cols() * plan.routing.size()));
  const double cuda_fraction =
      static_cast<double>(plan.total_cuda_columns()) /
      static_cast<double>(a.cols() * plan.routing.size());
  EXPECT_LT(cuda_fraction, 0.35);
}

TEST(Hybrid, ReportChargesAllPipes) {
  gpusim::CostModel cm;
  DenseMatrix<fp16_t> a(64, 128);
  Rng rng(31);
  for (std::size_t c = 0; c < 4; ++c) {  // dense columns
    for (std::size_t r = 0; r < 64; ++r) a(r, c) = fp16_t(1.0f);
  }
  a(9, 100) = fp16_t(1.0f);  // cuda singleton
  for (std::size_t c = 10; c < 90; c += 2) {  // sptc columns
    for (std::size_t r = c % 5; r < 64; r += 6) a(r, c) = fp16_t(0.5f);
  }
  const auto plan = hybrid_plan(a, {});
  const auto run = hybrid_run(plan, random_b(128, 64, 32), cm,
                              {.compute_values = false});
  EXPECT_GT(run.report.counters.sptc_macs, 0.0);
  EXPECT_GT(run.report.counters.tc_fp16_macs, 0.0);
  EXPECT_GT(run.report.counters.cuda_macs, 0.0);
}

/// The pipes as they were first written, kept as the reference: C starts
/// as the SpTC product, then per (dense tile, slice, 8-wide n chunk) one
/// mma_m16n8k16 over tiles copied out of the dense operand, then scalar
/// FMAs over the CUDA-routed columns read from the dense operand.
DenseMatrix<float> reference_pipes(const HybridPlan& plan,
                                   const DenseMatrix<fp16_t>& a,
                                   const DenseMatrix<fp16_t>& b) {
  const std::size_t n = b.cols();
  const auto bt = static_cast<std::size_t>(plan.options.tile.block_tile_m);
  DenseMatrix<float> c = jigsaw_compute(plan.format, b);
  for (std::size_t p = 0; p < plan.routing.size(); ++p) {
    const PanelRouting& routing = plan.routing[p];
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());
    for (std::size_t t0 = 0; t0 < routing.dense_columns.size(); t0 += 16) {
      const std::size_t tcols =
          std::min<std::size_t>(16, routing.dense_columns.size() - t0);
      for (std::size_t slice_row = row_begin; slice_row < row_end;
           slice_row += kMmaTile) {
        const std::size_t mrows =
            std::min<std::size_t>(kMmaTile, a.rows() - slice_row);
        DenseMatrix<fp16_t> atile(16, 16);
        for (std::size_t j = 0; j < tcols; ++j) {
          for (std::size_t r = 0; r < mrows; ++r) {
            atile(r, j) = a(slice_row + r, routing.dense_columns[t0 + j]);
          }
        }
        DenseMatrix<fp16_t> btile(16, 8);
        DenseMatrix<float> acc(16, 8);
        for (std::size_t n0 = 0; n0 < n; n0 += 8) {
          const std::size_t nw = std::min<std::size_t>(8, n - n0);
          for (std::size_t j = 0; j < 16; ++j) {
            for (std::size_t q = 0; q < nw; ++q) {
              btile(j, q) = j < tcols
                                ? b(routing.dense_columns[t0 + j], n0 + q)
                                : fp16_t{};
            }
          }
          std::fill(acc.data(), acc.data() + acc.size(), 0.0f);
          auto accv = acc.view().subview(0, 0, 16, nw);
          sptc::mma_m16n8k16(atile.view(),
                             btile.view().subview(0, 0, 16, nw), accv);
          for (std::size_t r = 0; r < mrows; ++r) {
            for (std::size_t q = 0; q < nw; ++q) {
              c(slice_row + r, n0 + q) += acc(r, q);
            }
          }
        }
      }
    }
    for (const std::uint32_t col : routing.cuda_columns) {
      for (std::size_t r = row_begin; r < row_end; ++r) {
        const float av = static_cast<float>(a(r, col));
        if (av == 0.0f) continue;
        for (std::size_t q = 0; q < n; ++q) {
          c(r, q) += av * static_cast<float>(b(col, q));
        }
      }
    }
  }
  return c;
}

bool bit_identical(const DenseMatrix<float>& x, const DenseMatrix<float>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(HybridCompute, GatheredPipesAreBitIdenticalToThePerTileMmaLoop) {
  // Ragged shapes (rows not a multiple of 16, n not a multiple of 8) and
  // both plan producers: the §4.7 router and the checked tier's degraded
  // compile.
  struct Case {
    std::size_t m, k;
    double sparsity;
    std::size_t v;
    int block_tile;
  };
  for (const Case& cs : {Case{64, 128, 0.5, 4, 16}, Case{100, 130, 0.7, 2, 32},
                         Case{120, 256, 0.6, 2, 64}}) {
    const auto a = vector_sparse(cs.m, cs.k, cs.sparsity, cs.v, 7);
    HybridOptions hopts;
    hopts.tile.block_tile_m = cs.block_tile;
    const HybridPlan routed = hybrid_plan(a, hopts);
    CheckedRunOptions copts;
    copts.tile.block_tile_m = cs.block_tile;
    auto checked = checked_compile(a, copts);
    ASSERT_TRUE(checked.ok()) << checked.status().to_string();
    std::vector<const HybridPlan*> plans = {&routed};
    if (checked.value().hybrid.has_value()) {
      plans.push_back(&*checked.value().hybrid);
    }
    for (const HybridPlan* plan : plans) {
      for (const std::size_t n : {1, 13, 64, 300}) {
        SCOPED_TRACE(::testing::Message()
                     << cs.m << "x" << cs.k << " bt" << cs.block_tile
                     << (plan == &routed ? " routed" : " degraded")
                     << " n=" << n);
        const auto b = random_b(cs.k, n, 40 + n);
        EXPECT_TRUE(
            bit_identical(hybrid_compute(*plan, b), reference_pipes(*plan, a, b)));
      }
    }
  }
}

TEST(HybridCompute, GathersOnlyTheRoutedColumns) {
  DenseMatrix<fp16_t> a(32, 64);
  for (std::size_t r = 0; r < 32; ++r) a(r, 3) = fp16_t(1.0f);  // dense
  a(7, 40) = fp16_t(-2.0f);                                     // thin
  HybridOptions opts;
  opts.tile.block_tile_m = 32;
  const HybridPlan plan = hybrid_plan(a, opts);
  ASSERT_EQ(plan.routing.size(), 1u);
  const PanelRouting& r = plan.routing[0];
  EXPECT_EQ(r.dense_columns, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(r.cuda_columns, (std::vector<std::uint32_t>{40}));
  // One 16-column tile x two 16-row slices.
  EXPECT_EQ(r.dense_tiles.size(), 2u * 16u * 16u);
  EXPECT_EQ(r.cuda_offsets, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(r.cuda_rows, (std::vector<std::uint8_t>{7}));
  ASSERT_EQ(r.cuda_values.size(), 1u);
  EXPECT_EQ(static_cast<float>(r.cuda_values[0]), -2.0f);
}

}  // namespace
}  // namespace jigsaw::core
