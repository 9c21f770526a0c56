#include "core/hybrid.hpp"

#include <algorithm>
#include <bit>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/simd.hpp"

namespace jigsaw::core {

namespace {

/// Per-column panel statistics used for routing.
struct ColumnStats {
  std::uint32_t panel_nnz = 0;
  std::uint32_t max_slice_nnz = 0;  ///< densest 16-row slice
};

ColumnStats column_stats(const DenseMatrix<fp16_t>& a, std::size_t row_begin,
                         std::size_t row_end, std::size_t col) {
  ColumnStats s;
  std::uint32_t slice_count = 0;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    if (!a(r, col).is_zero()) {
      ++s.panel_nnz;
      ++slice_count;
    }
    if ((r - row_begin) % kMmaTile == kMmaTile - 1 || r + 1 == row_end) {
      s.max_slice_nnz = std::max(s.max_slice_nnz, slice_count);
      slice_count = 0;
    }
  }
  return s;
}

}  // namespace

std::size_t HybridPlan::total_dense_columns() const {
  std::size_t n = 0;
  for (const auto& r : routing) n += r.dense_columns.size();
  return n;
}

std::size_t HybridPlan::total_cuda_columns() const {
  std::size_t n = 0;
  for (const auto& r : routing) n += r.cuda_columns.size();
  return n;
}

std::size_t HybridPlan::pipe_bytes() const {
  std::size_t bytes = 0;
  for (const PanelRouting& r : routing) {
    bytes += (r.dense_columns.size() + r.cuda_columns.size() +
              r.cuda_offsets.size()) *
                 sizeof(std::uint32_t) +
             (r.dense_tiles.size() + r.cuda_values.size()) * sizeof(fp16_t) +
             r.cuda_rows.size() * sizeof(std::uint8_t);
  }
  return bytes;
}

void gather_fallback_columns(const DenseMatrix<fp16_t>& a, HybridPlan& plan) {
  const std::size_t bt =
      static_cast<std::size_t>(plan.options.tile.block_tile_m);
  // Panel-relative CUDA rows are stored as uint8.
  JIGSAW_CHECK(bt % kMmaTile == 0 && bt <= 256);
  parallel_for(static_cast<std::int64_t>(plan.routing.size()),
               [&](std::int64_t pi) {
    const auto p = static_cast<std::size_t>(pi);
    PanelRouting& r = plan.routing[p];
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());

    const std::size_t tiles = (r.dense_columns.size() + kMmaTile - 1) / kMmaTile;
    r.dense_tiles.assign(tiles * bt * kMmaTile, fp16_t{});
    for (std::size_t i = 0; i < r.dense_columns.size(); ++i) {
      const std::size_t t = i / kMmaTile, j = i % kMmaTile;
      for (std::size_t row = row_begin; row < row_end; ++row) {
        r.dense_tiles[(t * bt + row - row_begin) * kMmaTile + j] =
            a(row, r.dense_columns[i]);
      }
    }

    r.cuda_offsets.assign(1, 0);
    r.cuda_rows.clear();
    r.cuda_values.clear();
    for (const std::uint32_t col : r.cuda_columns) {
      for (std::size_t row = row_begin; row < row_end; ++row) {
        const fp16_t v = a(row, col);
        if (static_cast<float>(v) == 0.0f) continue;  // the pipe skips zeros
        r.cuda_rows.push_back(static_cast<std::uint8_t>(row - row_begin));
        r.cuda_values.push_back(v);
      }
      r.cuda_offsets.push_back(static_cast<std::uint32_t>(r.cuda_rows.size()));
    }
  });
}

HybridPlan hybrid_plan(const DenseMatrix<fp16_t>& a,
                       const HybridOptions& options) {
  JIGSAW_TRACE_SCOPE("hybrid", "hybrid.plan");
  options.tile.validate();
  JIGSAW_CHECK_MSG(a.rows() > 0 && a.cols() > 0, "empty matrix");

  HybridPlan plan;
  plan.options = options;

  const std::size_t bt = static_cast<std::size_t>(options.tile.block_tile_m);
  const std::size_t num_panels = (a.rows() + bt - 1) / bt;
  const auto dense_threshold = static_cast<std::uint32_t>(
      options.dense_route_min_density * kMmaTile);

  plan.routing.resize(num_panels);
  // route_map[panel][column]: only SpTC columns pass the reorder filter.
  std::vector<std::vector<Route>> route_map(
      num_panels, std::vector<Route>(a.cols(), Route::kSpTC));

  parallel_for(static_cast<std::int64_t>(num_panels), [&](std::int64_t pi) {
    const auto p = static_cast<std::size_t>(pi);
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());
    PanelRouting& routing = plan.routing[p];
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const ColumnStats s = column_stats(a, row_begin, row_end, c);
      if (s.panel_nnz == 0) continue;  // zero column: skipped everywhere
      if (s.max_slice_nnz > dense_threshold) {
        route_map[p][c] = Route::kDenseTC;
        routing.dense_columns.push_back(static_cast<std::uint32_t>(c));
      } else if (s.panel_nnz <= options.cuda_route_max_nnz) {
        route_map[p][c] = Route::kCudaCore;
        routing.cuda_columns.push_back(static_cast<std::uint32_t>(c));
        routing.cuda_nnz += s.panel_nnz;
      }
    }
  });

  ReorderOptions ropts = options.reorder;
  ropts.tile = options.tile;
  ropts.column_filter = [&route_map](std::size_t panel, std::uint32_t col) {
    return route_map[panel][col] == Route::kSpTC;
  };
  plan.reorder = multi_granularity_reorder(a, ropts);
  plan.format = JigsawFormat::build(a, plan.reorder);
  gather_fallback_columns(a, plan);

  if (obs::metrics_enabled()) {
    // Routing decisions, one observation per panel so the histograms show
    // the per-panel spread, not just the totals.
    obs::add("hybrid.plans");
    obs::add("hybrid.panels", static_cast<double>(plan.routing.size()));
    obs::add("hybrid.dense_columns",
             static_cast<double>(plan.total_dense_columns()));
    obs::add("hybrid.cuda_columns",
             static_cast<double>(plan.total_cuda_columns()));
    for (const PanelRouting& r : plan.routing) {
      obs::observe("hybrid.panel_dense_columns",
                   static_cast<double>(r.dense_columns.size()));
      obs::observe("hybrid.panel_cuda_columns",
                   static_cast<double>(r.cuda_columns.size()));
      obs::observe("hybrid.panel_cuda_nnz", static_cast<double>(r.cuda_nnz));
    }
  }
  return plan;
}

gpusim::KernelReport hybrid_cost(const HybridPlan& plan, std::size_t n,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning) {
  const std::size_t bt =
      static_cast<std::size_t>(plan.options.tile.block_tile_m);
  const int slices = plan.format.row_slices_per_panel();

  // Start from the SpTC walk, add the two extra pipes.
  gpusim::KernelReport sptc_report = jigsaw_cost(
      plan.format, n, KernelVersion::kV4, cost_model, tuning);
  gpusim::KernelCounters counters = sptc_report.counters;
  const double n_pad = static_cast<double>(round_up(n, 8));
  const double nblocks = static_cast<double>((n + kBlockTileN - 1) /
                                             kBlockTileN);
  for (const PanelRouting& r : plan.routing) {
    const double dense_tiles =
        static_cast<double>((r.dense_columns.size() + kMmaTile - 1) /
                            kMmaTile);
    // Dense tensor core: one m16n8k16 per (slice, tile, 8-wide n chunk).
    const double dense_macs = dense_tiles * slices * 16.0 * 16.0 * n_pad;
    counters.tc_fp16_macs += dense_macs;
    const double dense_mma = dense_macs / 1024.0;
    counters.instructions += dense_mma * 2.0;
    counters.smem_load_transactions += dense_mma * 1.2;
    // Raw A columns + gathered B rows staged per block.
    const double dense_bytes =
        (static_cast<double>(r.dense_columns.size()) *
         (static_cast<double>(bt) + kBlockTileN) * 2.0) *
        nblocks;
    counters.dram_read_bytes += dense_bytes / nblocks;
    counters.l2_read_bytes += dense_bytes * (nblocks - 1.0) / nblocks;
    counters.smem_store_transactions += dense_bytes / 128.0;

    // CUDA cores: scalar FMAs over the thin columns' nonzeros.
    const double cuda_macs =
        static_cast<double>(r.cuda_nnz) * static_cast<double>(n);
    counters.cuda_macs += cuda_macs;
    counters.instructions += cuda_macs / 64.0 * 1.5;
    const double cuda_bytes =
        static_cast<double>(r.cuda_columns.size()) * kBlockTileN * 2.0 *
        nblocks;
    counters.dram_read_bytes += cuda_bytes / nblocks;
    counters.l2_read_bytes += cuda_bytes * (nblocks - 1.0) / nblocks;
  }

  return cost_model.estimate(
      "hybrid_bt" + std::to_string(plan.options.tile.block_tile_m), counters,
      sptc_report.launch);
}

namespace {

/// Output columns one dense-route accumulator row covers (a 1 KiB stack
/// buffer); column chunking never changes a per-element sum.
constexpr std::size_t kPipeCols = 256;

}  // namespace

void hybrid_compute_into(const HybridPlan& plan, const DenseMatrix<fp16_t>& b,
                         DenseMatrix<float>& c) {
  JIGSAW_TRACE_SCOPE("hybrid", "hybrid.run");
  obs::add("hybrid.runs");
  JIGSAW_CHECK_MSG(b.rows() == plan.format.cols() && c.cols() == b.cols(),
                   "SpMM shape mismatch: A cols " << plan.format.cols()
                       << ", B " << b.rows() << "x" << b.cols() << ", C cols "
                       << c.cols());
  const std::size_t m = c.rows(), n = b.cols();
  const std::size_t bt =
      static_cast<std::size_t>(plan.options.tile.block_tile_m);
  constexpr std::size_t kTile = kMmaTile * kMmaTile;

  // B staged as float once: the SpTC subset and both pipes read it.
  ArenaScope scratch(thread_scratch_arena());
  float* bf = scratch.alloc<float>((b.rows() + 1) * n);
  stage_rhs(b, bf);
  // SpTC subset first (it checks the output rows).
  jigsaw_compute_staged(plan.format, bf, c);

  // One task per 16-row slice: slices write disjoint rows of C, so the
  // order of the terms each output element receives stays the serial one.
  const std::size_t num_slices = (m + kMmaTile - 1) / kMmaTile;
  parallel_for(static_cast<std::int64_t>(num_slices), [&](std::int64_t si) {
    const std::size_t slice_row = static_cast<std::size_t>(si) * kMmaTile;
    const std::size_t p = slice_row / bt;
    const PanelRouting& routing = plan.routing[p];
    const std::size_t row_begin = p * bt;
    const std::size_t mrows = std::min<std::size_t>(kMmaTile, m - slice_row);
    float af[kTile];
    float acc[kPipeCols];

    // Dense tensor core route: per tile the m16n8k16 product of the
    // gathered 16x16 A tile, summed over k into a zeroed accumulator
    // (zeros skipped) and only then added to C.
    for (std::size_t t0 = 0; t0 < routing.dense_columns.size();
         t0 += kMmaTile) {
      const std::size_t tcols =
          std::min<std::size_t>(kMmaTile, routing.dense_columns.size() - t0);
      const std::uint32_t* cols = routing.dense_columns.data() + t0;
      const fp16_t* tile =
          routing.dense_tiles.data() +
          ((t0 / kMmaTile) * bt + slice_row - row_begin) * kMmaTile;
      for (std::size_t i = 0; i < mrows * kMmaTile; ++i) {
        af[i] = static_cast<float>(tile[i]);
      }
      for (std::size_t n0 = 0; n0 < n; n0 += kPipeCols) {
        const std::size_t nw = std::min(kPipeCols, n - n0);
        for (std::size_t r = 0; r < mrows; ++r) {
          std::fill(acc, acc + nw, 0.0f);
          for (std::size_t k = 0; k < tcols; ++k) {
            const float av = af[r * kMmaTile + k];
            if (av == 0.0f) continue;
            const float* brow =
                bf + static_cast<std::size_t>(cols[k]) * n + n0;
            JIGSAW_PRAGMA_SIMD
            for (std::size_t j = 0; j < nw; ++j) acc[j] += av * brow[j];
          }
          float* crow = c.data() + (slice_row + r) * n + n0;
          JIGSAW_PRAGMA_SIMD
          for (std::size_t j = 0; j < nw; ++j) crow[j] += acc[j];
        }
      }
    }

    // CUDA-core route: scalar FMAs over the thin columns' nonzeros in
    // this slice.
    for (std::size_t i = 0; i < routing.cuda_columns.size(); ++i) {
      const float* brow =
          bf + static_cast<std::size_t>(routing.cuda_columns[i]) * n;
      for (std::uint32_t e = routing.cuda_offsets[i];
           e < routing.cuda_offsets[i + 1]; ++e) {
        const std::size_t row = row_begin + routing.cuda_rows[e];
        if (row < slice_row || row >= slice_row + mrows) continue;
        const float av = static_cast<float>(routing.cuda_values[e]);
        float* crow = c.data() + row * n;
        JIGSAW_PRAGMA_SIMD
        for (std::size_t q = 0; q < n; ++q) crow[q] += av * brow[q];
      }
    }
  });
}

DenseMatrix<float> hybrid_compute(const HybridPlan& plan,
                                  const DenseMatrix<fp16_t>& b) {
  DenseMatrix<float> c(plan.format.rows(), b.cols());
  hybrid_compute_into(plan, b, c);
  return c;
}

HybridRunResult hybrid_run(const HybridPlan& plan,
                           const DenseMatrix<fp16_t>& b,
                           const gpusim::CostModel& cost_model,
                           const HybridRunOptions& options) {
  JIGSAW_CHECK(b.rows() == plan.format.cols());
  HybridRunResult result;
  result.report = hybrid_cost(plan, b.cols(), cost_model);
  if (options.compute_values) result.c = hybrid_compute(plan, b);
  return result;
}

}  // namespace jigsaw::core
