#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/error.hpp"
#include "core/format_limits.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  fnv_mix(h, bits);
}

void apply_epilogue(DenseMatrix<float>& c, const core::Epilogue& epilogue) {
  if (!epilogue.active()) return;
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      c(r, j) = epilogue.apply(c(r, j), r);
    }
  }
}

/// Ascending BLOCK_TILE row panels holding at least one dirty row.
/// Engine::update re-plans and re-walks those of the mask-dirty rows and
/// rebuilds the format segments of those of the value-dirty rows.
std::vector<std::size_t> dirty_panels_of(const std::vector<bool>& row_dirty,
                                         int block_tile) {
  const auto bt = static_cast<std::size_t>(block_tile);
  std::vector<std::size_t> dirty;
  for (std::size_t r = 0; r < row_dirty.size(); ++r) {
    if (row_dirty[r] && (dirty.empty() || dirty.back() != r / bt)) {
      dirty.push_back(r / bt);
    }
  }
  return dirty;
}

/// compile_artifact's kRaw candidate selection, shared with the update
/// path so a spliced plan picks the same BLOCK_TILE its base would.
std::pair<bool, std::size_t> choose_raw_candidate(const core::JigsawPlan& plan,
                                                  int preferred_block_tile) {
  std::size_t chosen = 0;
  bool any_success = false;
  for (std::size_t i = 0; i < plan.reorders.size(); ++i) {
    if (!plan.reorders[i].success()) continue;
    if (!any_success ||
        plan.reorders[i].tile.block_tile_m == preferred_block_tile) {
      chosen = i;
    }
    any_success = true;
  }
  return {any_success, chosen};
}

/// splitmix64's finalizer: a bijective 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Row r's term of matrix_content_hash: four independent multiply-rotate
/// lanes over the row's 64-bit words (four fp16 elements each, the last
/// one zero-padded), folded together with the row index.
std::uint64_t row_hash(const DenseMatrix<fp16_t>& a, std::size_t r) {
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(a.data() + r * a.cols());
  const std::size_t n = a.cols() * sizeof(fp16_t);
  std::uint64_t lane[4] = {1, 2, 3, 4};
  const auto step = [&](std::size_t l, std::size_t i, std::size_t len) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, len);
    lane[l] = std::rotl((lane[l] ^ w) * 0x9e3779b97f4a7c15ull, 29);
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t l = 0; l < 4; ++l) step(l, i + 8 * l, 8);
  }
  for (std::size_t l = 0; i < n; i += 8, ++l) {
    step(l, i, std::min<std::size_t>(8, n - i));
  }
  std::uint64_t h = mix64(r + 1);
  for (const std::uint64_t l : lane) h = mix64(h ^ l);
  return h;
}

}  // namespace

std::uint64_t matrix_content_hash(const DenseMatrix<fp16_t>& a) {
  std::uint64_t h = mix64(mix64(kFnvOffset ^ a.rows()) ^ a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) h += row_hash(a, r);
  return h;
}

std::uint64_t options_content_hash(const EngineOptions& options,
                                   ExecutionPolicy resolved_policy) {
  const EngineOptions::Compile& c = options.compile;
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(resolved_policy));
  fnv_mix(h, static_cast<std::uint64_t>(c.version));
  fnv_mix(h, static_cast<std::uint64_t>(c.block_tile));
  fnv_mix(h, static_cast<std::uint64_t>(c.metadata_layout));
  fnv_mix_double(h, c.dense_route_min_density);
  fnv_mix(h, c.cuda_route_max_nnz);
  // updatable changes the artifact (retained operand, lineage cell), so
  // updatable and non-updatable compiles of one matrix never share an
  // entry — an update retiring its old generation cannot evict the
  // read-only artifact other callers keep hitting.
  fnv_mix(h, static_cast<std::uint64_t>(c.updatable));
  // Every plan-affecting reorder knob. max_threads is deliberately
  // excluded (plans are thread-count invariant) and column_filter is a
  // std::function — requests carrying one are never cached at all.
  const core::ReorderOptions& r = c.reorder;
  fnv_mix(h, static_cast<std::uint64_t>(r.tile.block_tile_m));
  fnv_mix(h, static_cast<std::uint64_t>(r.search.bank_conflict_aware));
  fnv_mix(h, static_cast<std::uint64_t>(r.search.greedy_attempts));
  fnv_mix(h, r.search.max_pair_iterations);
  fnv_mix(h, r.search.conflict_free_search_budget);
  fnv_mix(h, static_cast<std::uint64_t>(r.eviction_limit_per_tile));
  fnv_mix(h, r.seed);
  fnv_mix(h, static_cast<std::uint64_t>(r.use_memo_cache));
  fnv_mix(h, static_cast<std::uint64_t>(r.use_incremental_retry));
  fnv_mix(h, static_cast<std::uint64_t>(r.rescue_attempts));
  return h;
}

Engine::Engine(EngineConfig config)
    : config_(config),
      cache_(config.cache_capacity_bytes, config.cache_shards),
      pool_(config.worker_threads) {}

Result<std::shared_ptr<const CompiledMatrix>> Engine::compile(
    const DenseMatrix<fp16_t>& a, const EngineOptions& options) {
  JIGSAW_TRACE_SCOPE("engine", "engine.compile");
  if (a.rows() == 0 || a.cols() == 0) {
    return Status(StatusCode::kInvalidArgument, "A is empty");
  }
  const int bt = options.compile.block_tile;
  if (!core::block_tile_valid(bt)) {
    return Status(StatusCode::kInvalidArgument,
                  "BLOCK_TILE must be 16, 32 or 64, got " + std::to_string(bt));
  }
  const ExecutionPolicy policy = options.policy == ExecutionPolicy::kAuto
                                     ? ExecutionPolicy::kChecked
                                     : options.policy;
  const CacheKey key{matrix_content_hash(a),
                     options_content_hash(options, policy)};
  if (options.compile.reorder.column_filter) {
    obs::add("engine.cache.bypass");
    auto artifact = compile_artifact(a, options, policy, key);
    if (!artifact.ok()) return artifact.status();
    return std::shared_ptr<const CompiledMatrix>(artifact.value());
  }

  if (auto hit = cache_.find(key)) {
    obs::add("engine.cache.hits");
    return hit;
  }
  obs::add("engine.cache.misses");

  auto artifact = compile_artifact(a, options, policy, key);
  if (!artifact.ok()) return artifact.status();
  auto inserted = cache_.insert(key, artifact.value(),
                                artifact.value()->footprint_bytes);
  if (!inserted.ok()) return inserted.status();
  obs::gauge_set("engine.cache.bytes",
                 static_cast<double>(cache_.stats().bytes));
  return inserted;
}

Result<std::shared_ptr<CompiledMatrix>> Engine::compile_artifact(
    const DenseMatrix<fp16_t>& a, const EngineOptions& options,
    ExecutionPolicy policy, const CacheKey& key) const {
  const auto t0 = std::chrono::steady_clock::now();
  auto cm = std::make_shared<CompiledMatrix>();
  cm->matrix_hash = key.matrix_hash;
  cm->options_hash = key.options_hash;
  cm->policy = policy;
  cm->options = options.compile;
  cm->rows = a.rows();
  cm->cols = a.cols();

  // Route selection happens here, once: the artifact records it and
  // execute() just follows. Exceptions from the trusted tier (contract
  // bugs) are converted to kInternal at this boundary.
  try {
    switch (policy) {
      case ExecutionPolicy::kAuto:  // resolved by compile(); unreachable
      case ExecutionPolicy::kChecked: {
        auto artifact =
            core::checked_compile(a, core::checked_options_from(options));
        if (!artifact.ok()) return artifact.status();
        core::CheckedArtifact& art = artifact.value();
        cm->degraded = art.degraded;
        cm->degradation = std::move(art.degradation);
        if (art.degraded) {
          cm->hybrid = std::move(art.hybrid);
        } else {
          const core::MetadataLayout layout = options.compile.metadata_layout;
          cm->plan.version = options.compile.version;
          // checked_compile built its format in the default layout.
          cm->plan.formats.push_back(
              art.format.metadata_layout() == layout
                  ? std::move(art.format)
                  : core::JigsawFormat::build(a, art.reorder, layout));
          cm->plan.reorders.push_back(std::move(art.reorder));
        }
        break;
      }
      case ExecutionPolicy::kHybrid: {
        core::HybridOptions hopts;
        hopts.tile.block_tile_m = options.compile.block_tile;
        hopts.dense_route_min_density = options.compile.dense_route_min_density;
        hopts.cuda_route_max_nnz = options.compile.cuda_route_max_nnz;
        hopts.reorder = options.compile.reorder;
        cm->hybrid = core::hybrid_plan(a, hopts);
        break;
      }
      case ExecutionPolicy::kRaw: {
        cm->plan = core::jigsaw_plan(a, options.compile);
        const auto [any_success, chosen] =
            choose_raw_candidate(cm->plan, options.compile.block_tile);
        if (!any_success) {
          return Status(
              StatusCode::kReorderFailed,
              "raw policy: no BLOCK_TILE candidate reordered successfully "
              "(§4.3); recompile with ExecutionPolicy::kChecked to degrade "
              "instead");
        }
        cm->primary = chosen;
        // The n-independent half of V4's BLOCK_TILE tuning, once; execute
        // folds these per request.
        for (const core::JigsawFormat& f : cm->plan.formats) {
          cm->walks.push_back(core::cost_walk(
              f, cm->plan.version, config_.cost_model.arch(), config_.tuning));
        }
        break;
      }
    }
    cm->plan_fingerprint = core::plan_fingerprint(
        cm->hybrid_route() ? cm->hybrid->reorder
                           : cm->plan.reorders[cm->primary]);
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("compile raised: ") + e.what());
  }
  Status finalized = finalize_artifact(*cm);
  if (!finalized.ok()) return finalized;
  if (cm->updatable) {
    cm->lhs = a;
    // Fresh lineage cell with this generation-0 artifact as its head. A
    // racing compile of the same key converges on whichever artifact the
    // cache published first, lineage and all; the loser's cell is simply
    // dropped with its artifact.
    cm->lineage = std::make_shared<Lineage>();
    cm->lineage->publish(std::weak_ptr<const CompiledMatrix>(cm));
  }
  cm->compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::observe("engine.compile_seconds", cm->compile_seconds);
  return cm;
}

Status Engine::finalize_artifact(CompiledMatrix& cm) const {
  Status valid = cm.format().validate();
  if (!valid.ok()) {
    return Status(StatusCode::kInternal,
                  "freshly built format failed validation: " +
                      valid.to_string());
  }
  cm.updatable = cm.options.updatable;

  // Resident size charged against the cache bound.
  std::size_t bytes = 0;
  for (const core::JigsawFormat& f : cm.plan.formats) {
    bytes += f.memory_footprint().total();
  }
  for (const core::CostWalk& w : cm.walks) bytes += w.bytes();
  if (cm.hybrid.has_value()) {
    // The SpTC subset plus the routed columns the pipes read, gathered
    // out of the operand at plan time.
    bytes += cm.hybrid->format.memory_footprint().total() +
             cm.hybrid->pipe_bytes();
  }
  if (cm.updatable) {
    // Engine::update applies deltas against the operand, so it stays
    // resident with the artifact and is charged to the cache.
    bytes += cm.rows * cm.cols * sizeof(fp16_t);
  }
  cm.footprint_bytes = bytes;
  return Status::Ok();
}

Result<std::shared_ptr<CompiledMatrix>> Engine::update_artifact(
    const CompiledMatrix& base, DenseMatrix<fp16_t> a2,
    std::uint64_t matrix_hash, const std::vector<bool>& value_dirty,
    const std::vector<bool>& mask_dirty) const {
  EngineOptions options;
  options.policy = base.policy;
  options.compile = base.options;
  const CacheKey key{matrix_hash, base.options_hash};

  // Degraded/hybrid bases route columns off the SpTC path per panel; that
  // routing is not representable by a panel splice, so their successor is
  // a full recompile — bit-identical to a fresh compile of the mutated
  // matrix and published just as atomically.
  if (base.hybrid_route()) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.full_recompiles");
    return compile_artifact(a2, options, base.policy, key);
  }

  auto cm = std::make_shared<CompiledMatrix>();
  cm->matrix_hash = key.matrix_hash;
  cm->options_hash = key.options_hash;
  cm->policy = base.policy;
  cm->options = base.options;
  cm->rows = a2.rows();
  cm->cols = a2.cols();
  cm->plan.version = base.options.version;

  const bool raw = base.policy == ExecutionPolicy::kRaw;
  std::size_t panels_replanned = 0;
  try {
    JIGSAW_CHECK(base.plan.formats.size() == base.plan.reorders.size() &&
                 (!raw || base.walks.size() == base.plan.formats.size()));
    // Splice every stored candidate (V4 kRaw carries three). The reorder
    // options replicate the compile's exactly — the recorded tile IS the
    // one compile used, kRaw adds the version's bank-conflict switch, and
    // per-panel seeds derive from (seed, panel index) — so re-planning
    // only the mask-dirty panels is bit-identical to a fresh compile.
    const core::KernelFeatures feats =
        core::KernelFeatures::for_version(base.options.version);
    for (std::size_t i = 0; i < base.plan.reorders.size(); ++i) {
      core::ReorderOptions ropts = base.options.reorder;
      ropts.tile = base.plan.reorders[i].tile;
      if (raw) ropts.search.bank_conflict_aware = feats.padded_smem;
      const std::vector<std::size_t> replan =
          dirty_panels_of(mask_dirty, ropts.tile.block_tile_m);
      core::ReorderResult reorder = base.plan.reorders[i];
      core::reorder_panels(a2, ropts, replan, reorder);
      panels_replanned += replan.size();
      cm->plan.formats.push_back(base.plan.formats[i].rebuild_panels(
          a2, reorder,
          dirty_panels_of(value_dirty, ropts.tile.block_tile_m)));
      if (raw) {
        cm->walks.push_back(core::cost_walk_panels(
            base.walks[i], cm->plan.formats.back(), replan,
            config_.cost_model.arch()));
      }
      cm->plan.reorders.push_back(std::move(reorder));
    }

    if (raw) {
      const auto [any_success, chosen] =
          choose_raw_candidate(cm->plan, base.options.block_tile);
      if (!any_success) {
        return Status(
            StatusCode::kReorderFailed,
            "update: no BLOCK_TILE candidate reordered successfully after "
            "the delta (§4.3); the previous generation keeps serving — "
            "compile with ExecutionPolicy::kChecked to degrade instead");
      }
      cm->primary = chosen;
    } else {
      const core::ReorderResult& reorder = cm->plan.reorders[0];
      if (std::any_of(reorder.panels.begin(), reorder.panels.end(),
                      [&](const core::PanelReorder& p) {
                        return core::panel_failed(p, a2.cols());
                      })) {
        // The delta pushed a panel off the SpTC path; the checked tier
        // would degrade it onto the hybrid pipes, which the splice cannot
        // represent — recompile from scratch instead.
        // jigsaw-lint: allow(obs-name): named after the serving API
        // surface (engine.update), not an obs subsystem.
        obs::add("jigsaw.engine.update.full_recompiles");
        return compile_artifact(a2, options, base.policy, key);
      }
      cm->degradation.panels_total = reorder.panels.size();
      cm->degradation.reorder_evictions = reorder.total_evictions();
    }
    cm->plan_fingerprint =
        core::plan_fingerprint(cm->plan.reorders[cm->primary]);
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("update raised: ") + e.what());
  }
  Status finalized = finalize_artifact(*cm);
  if (!finalized.ok()) return finalized;
  cm->lhs = std::move(a2);
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::add("jigsaw.engine.update.incremental");
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem. Counted on every incremental
  // update, 0 included: only mask-dirty panels are re-planned.
  obs::add("jigsaw.engine.update.panels_replanned",
           static_cast<double>(panels_replanned));
  return cm;
}

Result<std::shared_ptr<const CompiledMatrix>> Engine::update(
    const std::shared_ptr<const CompiledMatrix>& handle,
    const SparseDelta& delta) {
  JIGSAW_TRACE_SCOPE("engine", "engine.update");
  const auto t0 = std::chrono::steady_clock::now();
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::add("jigsaw.engine.update.attempts");
  if (handle == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "update with a null CompiledMatrix handle");
  }
  if (!handle->updatable || handle->lineage == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "artifact was not compiled updatable; set "
                  "EngineOptions::Compile::updatable before compile()");
  }
  const std::shared_ptr<Lineage> lineage = handle->lineage;
  // One writer at a time per lineage; readers never take this lock.
  MutexLock writer(lineage->writer_mu);
  std::shared_ptr<const CompiledMatrix> base = lineage->head().lock();
  if (base == nullptr) base = handle;

  for (const SparseDelta::Entry& e : delta.entries) {
    if (e.row >= base->rows || e.col >= base->cols) {
      return Status(StatusCode::kInvalidArgument,
                    "delta entry (" + std::to_string(e.row) + ", " +
                        std::to_string(e.col) + ") outside the " +
                        std::to_string(base->rows) + "x" +
                        std::to_string(base->cols) + " operand");
    }
  }

  // The one copy of the operand; the successor takes ownership of it.
  DenseMatrix<fp16_t> a2 = base->lhs;
  std::vector<bool> value_dirty(base->rows, false);
  std::vector<bool> mask_dirty(base->rows, false);
  bool changed = false;
  for (const SparseDelta::Entry& e : delta.entries) {
    fp16_t& v = a2(e.row, e.col);
    if (v.bits() == e.value.bits()) continue;  // no-op entry
    if (v.is_zero() != e.value.is_zero()) mask_dirty[e.row] = true;
    v = e.value;
    value_dirty[e.row] = true;
    changed = true;
  }
  if (!changed) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.noops");
    return base;
  }
  // matrix_content_hash is a sum of row terms: swap the dirty rows' terms.
  std::uint64_t matrix_hash = base->matrix_hash;
  for (std::size_t r = 0; r < base->rows; ++r) {
    if (value_dirty[r]) matrix_hash += row_hash(a2, r) - row_hash(base->lhs, r);
  }

  auto rebuilt = update_artifact(*base, std::move(a2), matrix_hash,
                                 value_dirty, mask_dirty);
  if (!rebuilt.ok()) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.failures");
    return rebuilt.status();
  }
  std::shared_ptr<CompiledMatrix> cm = rebuilt.value();
  cm->generation = base->generation + 1;
  cm->updatable = true;
  cm->lineage = lineage;

  std::shared_ptr<const CompiledMatrix> published = cm;
  if (!base->options.reorder.column_filter) {
    // Insert the new generation's key BEFORE retiring the old one: a
    // failed insert (kCapacityExhausted) must leave the old generation
    // both cached and serving. erase() then retires exactly the
    // superseded key — unrelated entries keep their recency.
    const CacheKey new_key{cm->matrix_hash, cm->options_hash};
    auto inserted = cache_.insert(new_key, published, cm->footprint_bytes);
    if (!inserted.ok()) {
      // jigsaw-lint: allow(obs-name): named after the serving API surface
      // (engine.update), not an obs subsystem.
      obs::add("jigsaw.engine.update.failures");
      return inserted.status();
    }
    published = inserted.value();
    cache_.erase(CacheKey{base->matrix_hash, base->options_hash});
    obs::gauge_set("engine.cache.bytes",
                   static_cast<double>(cache_.stats().bytes));
  }
  // The RCU swap: new submits going through latest() see the new
  // generation from here on; in-flight executions finish on whatever
  // generation their shared_ptr pins.
  lineage->publish(std::weak_ptr<const CompiledMatrix>(published));

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::observe("jigsaw.engine.update.latency_seconds", seconds);
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::gauge_set("jigsaw.engine.update.generation",
                 static_cast<double>(cm->generation));
  return published;
}

std::shared_ptr<const CompiledMatrix> Engine::latest(
    const std::shared_ptr<const CompiledMatrix>& handle) {
  if (handle == nullptr || handle->lineage == nullptr) return handle;
  std::shared_ptr<const CompiledMatrix> head = handle->lineage->head().lock();
  return head != nullptr ? head : handle;
}

Result<DenseMatrix<float>> Engine::execute(
    const CompiledMatrix& handle, const DenseMatrix<fp16_t>& b,
    const EngineOptions::Run& run) const {
  JIGSAW_TRACE_SCOPE("engine", "engine.execute");
  const auto t0 = std::chrono::steady_clock::now();
  if (b.rows() != handle.cols) {
    return Status(StatusCode::kInvalidArgument,
                  "SpMM shape mismatch: compiled A cols " +
                      std::to_string(handle.cols) + " vs B rows " +
                      std::to_string(b.rows()));
  }
  try {
    // One path for every policy: pick the format, compute, run the
    // fallback pipes if the artifact has them, apply the epilogue.
    const bool pipes = handle.hybrid_route();
    const core::JigsawFormat* format = &handle.format();
    if (handle.policy == ExecutionPolicy::kRaw) {
      // The BLOCK_TILE for this n: a fold of the compile-time walks.
      format = &handle.plan.formats[core::choose_block_tile(
                                        handle.plan, handle.walks, b.cols(),
                                        config_.cost_model, run.epilogue)
                                        .index];
    }
    DenseMatrix<float> c(handle.rows, b.cols());
    // Heap traffic on this thread across the compute proper. On a
    // warmed-up worker (arena grown, pool caches primed) the delta is
    // zero — the regression tests in test_engine.cpp pin that down.
    const std::uint64_t heap_before = heap_allocation_count();
    if (pipes) {
      // The SpTC subset and the two fallback pipes fuse into one
      // product; the epilogue follows it.
      core::hybrid_compute_into(*handle.hybrid, b, c);
    } else {
      core::jigsaw_compute_into(*format, b, c, run.epilogue);
    }
    const std::uint64_t heap_delta = heap_allocation_count() - heap_before;
    if (pipes) apply_epilogue(c, run.epilogue);
    // Cached reference: a registry lookup hashes the name and may itself
    // allocate, which would poison the window on the next call.
    static obs::Counter& submit_allocs =
        // jigsaw-lint: allow(obs-name): the counter is named after the
        // serving API surface (engine.submit), not an obs subsystem.
        obs::counter("jigsaw.engine.submit.allocations");
    submit_allocs.add(static_cast<double>(heap_delta));
    obs::observe(
        "engine.execute_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    return c;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("execute raised: ") + e.what());
  }
}

std::future<Result<DenseMatrix<float>>> Engine::submit(
    std::shared_ptr<const CompiledMatrix> handle, DenseMatrix<fp16_t> b,
    EngineOptions::Run run) {
  obs::add("engine.submits");
  return pool_.submit(
      [this, handle = std::move(handle), b = std::move(b),
       run = std::move(run)]() -> Result<DenseMatrix<float>> {
        if (handle == nullptr) {
          return Status(StatusCode::kInvalidArgument,
                        "submit with a null CompiledMatrix handle");
        }
        return execute(*handle, b, run);
      });
}

gpusim::KernelReport Engine::cost(const CompiledMatrix& handle, std::size_t n,
                                  const EngineOptions::Run& run) const {
  if (handle.hybrid_route()) {
    return core::hybrid_cost(*handle.hybrid, n, config_.cost_model,
                             config_.tuning);
  }
  if (handle.policy == ExecutionPolicy::kRaw) {
    return core::choose_block_tile(handle.plan, handle.walks, n,
                                   config_.cost_model, run.epilogue)
        .report;
  }
  return core::jigsaw_cost(handle.format(), n, handle.options.version,
                           config_.cost_model, config_.tuning, run.epilogue);
}

}  // namespace jigsaw::engine
