// Hybrid execution across compute units — the §4.7 future-work extension.
//
// Below ~80% sparsity the pure-SpTC design loses to cuBLAS: dense column
// tiles cannot satisfy 2:4 without halving utilization, and at the other
// extreme ultra-sparse columns waste whole mma.sp operations on a handful
// of values. The paper sketches the fix: "for denser data tile, we can use
// dense tensor cores ... for sparser data tiles ... CUDA cores". This
// module implements that sketch:
//
//   * per BLOCK_TILE panel, every column is routed to one of three units:
//       - DENSE  (dense tensor core, mma.m16n8k16): columns whose nonzero
//         density in some 16-row slice exceeds 50% — they would force the
//         two-per-group fallback on the SpTC;
//       - CUDA   (CUDA cores): columns with at most `cuda_max_nnz`
//         nonzeros in the panel — too thin to feed a tensor core;
//       - SPTC   (the standard Jigsaw path): everything in between;
//   * the SpTC subset goes through the unchanged multi-granularity reorder
//     and reorder-aware format (via ReorderOptions::column_filter);
//   * dense-routed columns are gathered into plain 16-wide dense tiles;
//     CUDA-routed nonzeros into per-panel (row, value) lists;
//   * one fused kernel report charges all three pipes, which the cost
//     model naturally overlaps (tensor core, CUDA core and memory are
//     independent resources).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/kernel.hpp"

namespace jigsaw::core {

enum class Route : std::uint8_t { kSpTC = 0, kDenseTC = 1, kCudaCore = 2 };

struct HybridOptions {
  /// BLOCK_TILE; 16 routes at single-slice precision, which keeps the
  /// dense detour from dragging whole 64-row columns with it.
  TileConfig tile{.block_tile_m = 16};
  /// Columns whose densest 16-row slice exceeds this fraction go to the
  /// dense tensor core. 0.75 targets columns that would force the
  /// two-per-group SpTC fallback while leaving borderline columns to the
  /// reorder, which often still packs them at full utilization.
  double dense_route_min_density = 0.75;
  /// Columns with at most this many nonzeros in the whole panel go to the
  /// CUDA cores.
  std::uint32_t cuda_route_max_nnz = 2;
  ReorderOptions reorder{};  ///< knobs for the SpTC subset
};

/// Routing decision and payload for one panel.
struct PanelRouting {
  std::vector<std::uint32_t> dense_columns;  ///< original column ids
  std::vector<std::uint32_t> cuda_columns;
  std::size_t cuda_nnz = 0;  ///< nonzeros routed to CUDA cores

  // ---- The routed columns gathered out of A (gather_fallback_columns):
  // everything the two extra pipes read, so A itself need not stay
  // resident once the plan is built.
  /// Dense route: per 16-column tile of dense_columns, the panel's
  /// BLOCK_TILE rows x 16 columns, row-major and zero-padded — so each
  /// 16-row slice is one contiguous 16x16 tile.
  std::vector<fp16_t> dense_tiles;
  /// CUDA route: cuda_columns[i]'s nonzeros are entries
  /// [cuda_offsets[i], cuda_offsets[i + 1]) of (panel-relative row, value),
  /// rows ascending.
  std::vector<std::uint32_t> cuda_offsets;
  std::vector<std::uint8_t> cuda_rows;
  std::vector<fp16_t> cuda_values;
};

struct HybridPlan {
  HybridOptions options;
  JigsawFormat format;            ///< SpTC subset, standard Jigsaw format
  ReorderResult reorder;          ///< for stats
  std::vector<PanelRouting> routing;  ///< one per panel

  std::size_t total_dense_columns() const;
  std::size_t total_cuda_columns() const;
  /// Resident bytes of the routing lists and gathered columns.
  std::size_t pipe_bytes() const;
};

/// Classifies columns and preprocesses the SpTC subset.
HybridPlan hybrid_plan(const DenseMatrix<fp16_t>& a,
                       const HybridOptions& options = {});

/// Fills the gathered-column fields of every panel's routing from `a`,
/// once the routing lists are final. hybrid_plan calls it; so does the
/// checked tier's degraded compile.
void gather_fallback_columns(const DenseMatrix<fp16_t>& a, HybridPlan& plan);

/// Simulated report of the fused hybrid kernel at an n-column RHS: the
/// SpTC subset's cost walk plus the dense-TC and CUDA-core pipes.
gpusim::KernelReport hybrid_cost(const HybridPlan& plan, std::size_t n,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning = {});

/// Functional hybrid product into a caller-sized rows x b.cols() output:
/// B is staged as float once (stage_rhs) and read by all three pipes —
/// SpTC tiles through jigsaw_compute_staged, dense tiles through the
/// m16n8k16 accumulation, CUDA-routed nonzeros through scalar FMAs, the
/// last two from the gathered columns. Per output element the sum order is
/// the SpTC product, then each dense tile's k-sum in tile order, then the
/// CUDA columns in order. Scratch comes from the thread's arena.
void hybrid_compute_into(const HybridPlan& plan, const DenseMatrix<fp16_t>& b,
                         DenseMatrix<float>& c);
DenseMatrix<float> hybrid_compute(const HybridPlan& plan,
                                  const DenseMatrix<fp16_t>& b);

struct HybridRunResult {
  std::optional<DenseMatrix<float>> c;
  gpusim::KernelReport report;
};

// HybridRunOptions is a deprecated alias of EngineOptions::Run
// (core/options.hpp); the fused epilogue it carries is ignored by
// hybrid_run itself (the engine applies it after the three pipes merge).

/// hybrid_cost (default JigsawTuning), then hybrid_compute when
/// options.compute_values.
HybridRunResult hybrid_run(const HybridPlan& plan,
                           const DenseMatrix<fp16_t>& b,
                           const gpusim::CostModel& cost_model,
                           const HybridRunOptions& options = {});

}  // namespace jigsaw::core
