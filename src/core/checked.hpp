// Checked SpMM execution: the degrade-don't-die tier.
//
// The plain entry points (jigsaw_plan / jigsaw_run / jigsaw_compute)
// assume trusted, well-behaved input and throw jigsaw::Error on anything
// else. A serving system cannot: a weight matrix whose panel exhausts the
// §3.2 reorder-retry is not a caller bug, it is a workload property. This
// module wraps the pipeline in the Status/Result tier:
//
//   * run_spmm_checked(a, b, ...) reorders A, and any panel that failed
//     even after reorder-retry (tail splitting, or a layout grown past the
//     original K) is pulled out of the SpTC path entirely and routed
//     through the existing hybrid dense-TC / CUDA-core machinery
//     (core/hybrid.cpp) — the answer stays exact, the panel just runs on
//     a different pipe;
//   * run_spmm_checked(format, b, ...) deep-validates an untrusted format
//     (e.g. one loaded from disk) before letting the kernel near it;
//   * every absorbed failure is counted in a DegradationReport so the
//     caller can observe what the tier swallowed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/hybrid.hpp"

namespace jigsaw::core {

/// Counters of everything the checked tier absorbed instead of throwing.
struct DegradationReport {
  std::size_t panels_total = 0;
  std::size_t panels_degraded = 0;  ///< reorder failed; ran on hybrid pipes
  std::size_t fallback_dense_columns = 0;  ///< degraded columns on dense TC
  std::size_t fallback_cuda_columns = 0;   ///< degraded columns on CUDA cores
  std::uint64_t reorder_evictions = 0;     ///< §3.2 retry moves (absorbed work)
  std::size_t validation_failures = 0;     ///< formats validate() rejected
  std::vector<std::string> notes;          ///< one line per recorded event

  bool degraded() const { return panels_degraded > 0; }
  void note(std::string message) { notes.push_back(std::move(message)); }
};

/// Deprecated shim over the layered EngineOptions (core/options.hpp):
/// the checked tier predates the consolidation and mixed compile-section
/// fields (tile, reorder, routing threshold) with the latency-model
/// tuning, which the engine takes in EngineConfig instead. Existing call
/// sites keep compiling; new code builds an EngineOptions and lets the
/// engine drive this tier.
struct CheckedRunOptions {
  TileConfig tile{};          ///< BLOCK_TILE of the attempted SpTC path
  ReorderOptions reorder{};   ///< knobs of the first-chance reorder
  /// Degraded columns thinner than this (panel nonzeros) fall back to the
  /// CUDA cores; the rest go to the dense tensor core.
  std::uint32_t cuda_fallback_max_nnz = 2;
  JigsawTuning tuning{};  ///< used by run_spmm_checked

  /// The EngineOptions equivalent of this shim. `tuning` has no place
  /// there (it belongs to EngineConfig) and does not round-trip.
  EngineOptions to_engine_options() const;
};

/// §4.3 failure of one panel: tail splitting was needed, or the layout
/// grew past the (16-aligned) original K. The checked tier degrades such
/// panels onto the hybrid pipes.
bool panel_failed(const PanelReorder& panel, std::size_t cols);

/// Reconstructs the shim from the canonical layered options.
CheckedRunOptions checked_options_from(const EngineOptions& options);

/// The amortizable product of the checked tier's preprocessing: what
/// run_spmm_checked(a, ...) computes before it ever touches B. The engine
/// compiles this once per matrix and executes many right-hand sides
/// against it.
struct CheckedArtifact {
  /// True when at least one panel left the SpTC path.
  bool degraded = false;
  /// Undegraded: the full validated SpTC format. Unused when degraded
  /// (the hybrid plan below carries the SpTC subset instead).
  JigsawFormat format;
  /// The first-chance reorder (undegraded case: the one `format` was
  /// built from). Exposes plan_fingerprint/stats to the caller.
  ReorderResult reorder;
  /// Set when degraded: failed panels' columns routed to the dense-TC /
  /// CUDA-core pipes, SpTC subset re-reordered under the column filter.
  std::optional<HybridPlan> hybrid;
  DegradationReport degradation;
};

/// Compile phase of the checked tier: reorder A, degrade failed panels
/// through the hybrid routing, build + validate the format(s). Returns
/// kInvalidArgument for contract violations and kInternal should a built
/// format fail its own validation. Counters are published to the metrics
/// registry on every exit path.
[[nodiscard]] Result<CheckedArtifact> checked_compile(
    const DenseMatrix<fp16_t>& a, const CheckedRunOptions& options = {});

struct CheckedRunResult {
  DenseMatrix<float> c;            ///< exact product, whatever the route
  gpusim::KernelReport report;     ///< simulated cost of the chosen route
  DegradationReport degradation;
};

/// Executes one RHS against a compiled checked artifact: the SpTC path
/// when undegraded, the fused hybrid pipes (reading the columns the
/// compile gathered) otherwise.
CheckedRunResult checked_execute(const CheckedArtifact& artifact,
                                 const DenseMatrix<fp16_t>& b,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning = {});

/// End-to-end checked SpMM: checked_compile + checked_execute in one
/// call (the preprocessing is re-paid every time; serving loops should
/// compile once through jigsaw::Engine instead). Never throws for
/// workload-shaped failures; returns kInvalidArgument for shape
/// mismatches and kInternal should a built format fail its own
/// validation.
[[nodiscard]] Result<CheckedRunResult> run_spmm_checked(
    const DenseMatrix<fp16_t>& a, const DenseMatrix<fp16_t>& b,
    const gpusim::CostModel& cost_model,
    const CheckedRunOptions& options = {});

/// Format-level checked execution for untrusted formats (e.g. loaded from
/// disk): deep-validates up front, then runs the functional kernel. A
/// validation failure is returned as its Status and counted in `report`
/// when one is supplied.
[[nodiscard]] Result<DenseMatrix<float>> run_spmm_checked(
    const JigsawFormat& format, const DenseMatrix<fp16_t>& b,
    DegradationReport* report = nullptr);

}  // namespace jigsaw::core
