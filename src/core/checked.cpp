#include "core/checked.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::core {

bool panel_failed(const PanelReorder& panel, std::size_t cols) {
  const auto limit = static_cast<std::uint32_t>(round_up(cols, kMmaTile));
  return panel.used_split_fallback || panel.padded_cols() > limit;
}

namespace {

/// Nonzeros of `col` within one panel's row range.
std::uint32_t panel_column_nnz(const DenseMatrix<fp16_t>& a,
                               std::size_t row_begin, std::size_t row_end,
                               std::size_t col) {
  std::uint32_t nnz = 0;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    nnz += !a(r, col).is_zero();
  }
  return nnz;
}

/// Publishes the degradation counters of one checked compile. Called on
/// exit (success or failure) so validation failures are visible too.
void publish_degradation(const DegradationReport& deg) {
  if (!obs::metrics_enabled()) return;
  obs::add("checked.panels_total", static_cast<double>(deg.panels_total));
  obs::add("checked.panels_degraded",
           static_cast<double>(deg.panels_degraded));
  obs::add("checked.fallback_dense_columns",
           static_cast<double>(deg.fallback_dense_columns));
  obs::add("checked.fallback_cuda_columns",
           static_cast<double>(deg.fallback_cuda_columns));
  obs::add("checked.validation_failures",
           static_cast<double>(deg.validation_failures));
  if (deg.panels_degraded > 0) obs::add("checked.degraded_runs");
}

}  // namespace

EngineOptions CheckedRunOptions::to_engine_options() const {
  EngineOptions o;
  o.policy = ExecutionPolicy::kChecked;
  o.compile.block_tile = tile.block_tile_m;
  o.compile.reorder = reorder;
  o.compile.cuda_route_max_nnz = cuda_fallback_max_nnz;
  return o;
}

CheckedRunOptions checked_options_from(const EngineOptions& options) {
  CheckedRunOptions o;
  o.tile.block_tile_m = options.compile.block_tile;
  o.reorder = options.compile.reorder;
  o.cuda_fallback_max_nnz = options.compile.cuda_route_max_nnz;
  return o;
}

Result<CheckedArtifact> checked_compile(const DenseMatrix<fp16_t>& a,
                                        const CheckedRunOptions& options) {
  JIGSAW_TRACE_SCOPE("checked", "checked.compile");
  if (a.rows() == 0 || a.cols() == 0) {
    return Status(StatusCode::kInvalidArgument, "A is empty");
  }
  if (options.tile.block_tile_m != 16 && options.tile.block_tile_m != 32 &&
      options.tile.block_tile_m != 64) {
    return Status(StatusCode::kInvalidArgument,
                  "BLOCK_TILE must be 16, 32 or 64, got " +
                      std::to_string(options.tile.block_tile_m));
  }

  CheckedArtifact out;
  DegradationReport& deg = out.degradation;

  ReorderOptions ropts = options.reorder;
  ropts.tile = options.tile;
  out.reorder = multi_granularity_reorder(a, ropts);
  const ReorderResult& first = out.reorder;
  deg.panels_total = first.panels.size();
  deg.reorder_evictions = first.total_evictions();

  const std::size_t bt = static_cast<std::size_t>(options.tile.block_tile_m);
  std::vector<bool> degraded(first.panels.size(), false);
  for (std::size_t p = 0; p < first.panels.size(); ++p) {
    degraded[p] = panel_failed(first.panels[p], a.cols());
  }
  out.degraded =
      std::find(degraded.begin(), degraded.end(), true) != degraded.end();

  if (!out.degraded) {
    // Straight SpTC path; validate() before execution keeps the kernel's
    // trust boundary identical in both tiers.
    out.format = JigsawFormat::build(a, first);
    Status valid = out.format.validate();
    if (!valid.ok()) {
      ++deg.validation_failures;
      publish_degradation(deg);
      return Status(StatusCode::kInternal,
                    "freshly built format failed validation: " +
                        valid.to_string());
    }
    publish_degradation(deg);
    return out;
  }

  // ---- Graceful degradation: every column of a failed panel leaves the
  // SpTC path and runs on the hybrid dense-TC / CUDA-core pipes instead.
  HybridPlan plan;
  plan.options.tile = options.tile;
  plan.options.reorder = ropts;
  plan.options.cuda_route_max_nnz = options.cuda_fallback_max_nnz;
  plan.routing.resize(first.panels.size());
  for (std::size_t p = 0; p < first.panels.size(); ++p) {
    if (!degraded[p]) continue;
    ++deg.panels_degraded;
    const std::size_t row_begin = p * bt;
    const std::size_t row_end = std::min(row_begin + bt, a.rows());
    PanelRouting& routing = plan.routing[p];
    for (const std::uint32_t col : first.panels[p].col_idx) {
      const std::uint32_t nnz = panel_column_nnz(a, row_begin, row_end, col);
      if (nnz <= options.cuda_fallback_max_nnz) {
        routing.cuda_columns.push_back(col);
        routing.cuda_nnz += nnz;
      } else {
        routing.dense_columns.push_back(col);
      }
    }
    std::sort(routing.dense_columns.begin(), routing.dense_columns.end());
    std::sort(routing.cuda_columns.begin(), routing.cuda_columns.end());
    deg.fallback_dense_columns += routing.dense_columns.size();
    deg.fallback_cuda_columns += routing.cuda_columns.size();
    std::ostringstream os;
    os << "panel " << p << ": reorder failed ("
       << (first.panels[p].used_split_fallback ? "split fallback"
                                               : "K grew")
       << "); degraded " << routing.dense_columns.size()
       << " columns to dense TC, " << routing.cuda_columns.size()
       << " to CUDA cores";
    deg.note(os.str());
  }

  // Re-run the reorder with the degraded panels' columns filtered out of
  // the SpTC subset (same seed: untouched panels reorder identically).
  ropts.column_filter = [degraded](std::size_t panel, std::uint32_t) {
    return !degraded[panel];
  };
  plan.reorder = multi_granularity_reorder(a, ropts);
  plan.format = JigsawFormat::build(a, plan.reorder);
  Status valid = plan.format.validate();
  if (!valid.ok()) {
    ++deg.validation_failures;
    publish_degradation(deg);
    return Status(StatusCode::kInternal,
                  "degraded format failed validation: " + valid.to_string());
  }
  gather_fallback_columns(a, plan);
  out.hybrid = std::move(plan);
  publish_degradation(deg);
  return out;
}

CheckedRunResult checked_execute(const CheckedArtifact& artifact,
                                 const DenseMatrix<fp16_t>& b,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning) {
  JIGSAW_TRACE_SCOPE("checked", "checked.execute");
  CheckedRunResult out;
  out.degradation = artifact.degradation;
  if (!artifact.degraded) {
    out.report = jigsaw_cost(artifact.format, b.cols(), KernelVersion::kV4,
                             cost_model, tuning);
    out.c = jigsaw_compute(artifact.format, b);
    return out;
  }
  JIGSAW_CHECK_MSG(artifact.hybrid.has_value(),
                   "degraded artifact without a hybrid plan");
  out.report = hybrid_cost(*artifact.hybrid, b.cols(), cost_model, tuning);
  out.c = hybrid_compute(*artifact.hybrid, b);
  return out;
}

Result<CheckedRunResult> run_spmm_checked(const DenseMatrix<fp16_t>& a,
                                          const DenseMatrix<fp16_t>& b,
                                          const gpusim::CostModel& cost_model,
                                          const CheckedRunOptions& options) {
  JIGSAW_TRACE_SCOPE("checked", "checked.run");
  obs::add("checked.runs");
  if (a.rows() == 0 || a.cols() == 0) {
    return Status(StatusCode::kInvalidArgument, "A is empty");
  }
  if (b.rows() != a.cols()) {
    return Status(StatusCode::kInvalidArgument,
                  "SpMM shape mismatch: A cols " + std::to_string(a.cols()) +
                      " vs B rows " + std::to_string(b.rows()));
  }
  auto artifact = checked_compile(a, options);
  if (!artifact.ok()) return artifact.status();
  return checked_execute(artifact.value(), b, cost_model, options.tuning);
}

Result<DenseMatrix<float>> run_spmm_checked(const JigsawFormat& format,
                                            const DenseMatrix<fp16_t>& b,
                                            DegradationReport* report) {
  JIGSAW_TRACE_SCOPE("checked", "checked.run");
  obs::add("checked.runs");
  Status valid = format.validate();
  if (!valid.ok()) {
    obs::add("checked.validation_failures");
    if (report != nullptr) {
      ++report->validation_failures;
      report->note("format rejected: " + valid.to_string());
    }
    return valid;
  }
  if (b.rows() != format.cols()) {
    return Status(StatusCode::kInvalidArgument,
                  "SpMM shape mismatch: format cols " +
                      std::to_string(format.cols()) + " vs B rows " +
                      std::to_string(b.rows()));
  }
  return jigsaw_compute(format, b);
}

}  // namespace jigsaw::core
