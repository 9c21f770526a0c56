// jigsaw::Engine — the unified serving facade over the whole pipeline.
//
// The library's entry points grew bottom-up: multi_granularity_reorder →
// JigsawFormat → jigsaw_plan/jigsaw_run for the trusted path,
// run_spmm_checked for the degrade-don't-die tier, hybrid_plan/hybrid_run
// for the §4.7 mixed-unit extension. A serving system needs exactly one:
//
//   Engine engine;
//   auto handle = engine.compile(a, options);        // expensive, cached
//   auto future = engine.submit(handle.value(), b);  // cheap, concurrent
//   DenseMatrix<float> c = future.get().value();
//
// compile() runs reorder → format build → kernel plan (kRaw: plus each
// BLOCK_TILE candidate's cost walk) → hybrid routing and column gather
// once and returns an immutable CompiledMatrix; identical requests (same
// matrix content, same options) are served from a sharded LRU cache
// without re-running any preprocessing. submit() executes one RHS against
// the shared read-only artifact on a fixed worker pool
// (common/parallel.hpp), so independent batches run concurrently. Every
// route executes the same way — pick the format, jigsaw_compute_into,
// the fallback pipes if the artifact has them, the epilogue — and costs
// nothing; simulated reports come from Engine::cost alone.
// ExecutionPolicy picks the route once, at compile time:
//
//   kRaw      the trusted jigsaw_plan/jigsaw_run path; a matrix that
//             fails the §4.3 reorder is a typed kReorderFailed error;
//   kChecked  (the kAuto default) the checked tier: failed panels degrade
//             onto the hybrid dense-TC/CUDA-core pipes, the answer stays
//             exact;
//   kHybrid   the §4.7 density router for every matrix, failed or not.
//
// Everything the engine returns crosses an untrusted serving boundary, so
// errors are Status/Result values (never exceptions): kInvalidArgument
// for shape/option violations, kReorderFailed as above, kInternal for a
// format that fails its own validation, kCapacityExhausted when an
// artifact cannot fit the cache bound.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "core/checked.hpp"
#include "engine/plan_cache.hpp"

namespace jigsaw::engine {

using core::EngineOptions;
using core::ExecutionPolicy;
using jigsaw::DenseMatrix;
using jigsaw::fp16_t;

struct EngineConfig {
  /// Total byte budget of the compiled-artifact cache, split evenly
  /// across the shards. Artifact sizes are measured footprints
  /// (JigsawFormat::Footprint plus retained operands).
  std::size_t cache_capacity_bytes = 256ull << 20;
  int cache_shards = 8;
  /// Worker threads executing submit()ted requests; <= 0 uses the
  /// hardware concurrency.
  int worker_threads = 0;
  /// Simulated device all executions are costed against.
  gpusim::CostModel cost_model{};
  /// Latency-model calibration of that device. It shapes the cost walks
  /// kRaw artifacts take at compile time (and Engine::cost), so it is
  /// fixed per engine rather than passed per request: the walks an
  /// artifact stores always match the tuning execute folds them with.
  core::JigsawTuning tuning{};
};

/// One batch of point mutations against the source operand of an
/// updatable artifact (EngineOptions::Compile::updatable). Changed
/// values, newly-nonzero entries, and zeroed entries (value 0) all use
/// the same spelling; entries whose value already matches the operand
/// bit-for-bit are no-ops.
struct SparseDelta {
  struct Entry {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    fp16_t value{};
  };
  std::vector<Entry> entries;

  std::size_t size() const { return entries.size(); }
  void set(std::uint32_t row, std::uint32_t col, float value) {
    entries.push_back(Entry{row, col, fp16_t(value)});
  }
};

struct Lineage;

/// Immutable product of Engine::compile — everything any execution policy
/// needs, so one cached artifact serves raw, checked and hybrid requests
/// for its (matrix, options) key. Shared read-only across worker threads.
struct CompiledMatrix {
  /// matrix_content_hash of the operand: a sum of per-row terms, so
  /// Engine::update re-hashes only the rows a delta touched.
  std::uint64_t matrix_hash = 0;
  std::uint64_t options_hash = 0;  ///< hash of every plan-affecting option
  /// Identity of the reorder output (core::plan_fingerprint of the
  /// primary reorder) — comparable across processes and planner
  /// generations; diagnostics only, the cache keys on content instead
  /// (see plan_cache.hpp).
  std::uint64_t plan_fingerprint = 0;
  ExecutionPolicy policy = ExecutionPolicy::kChecked;  ///< resolved (never kAuto)
  EngineOptions::Compile options;  ///< the compile section this was built with
  std::size_t rows = 0, cols = 0;

  /// Each format is stored once, where its route reads it. kRaw: the
  /// trusted plan at options.version (V4 carries three BLOCK_TILE
  /// candidates). Clean kChecked: one reorder, its format in
  /// options.metadata_layout. The hybrid route: empty (see `hybrid`).
  core::JigsawPlan plan;
  /// plan index of the primary reorder (kRaw: the candidate at the
  /// preferred BLOCK_TILE, else the first that reordered).
  std::size_t primary = 0;
  /// kRaw only: the n-independent cost walk of each plan.formats
  /// candidate, taken at compile time against EngineConfig's cost model
  /// and tuning. Execute folds them for the request's n and epilogue to
  /// pick the BLOCK_TILE (core::choose_block_tile) — no walk per request.
  std::vector<core::CostWalk> walks;
  /// Set when the artifact routes any column off the SpTC path: always
  /// under kHybrid, under kChecked only when the reorder degraded.
  std::optional<core::HybridPlan> hybrid;
  core::DegradationReport degradation;
  bool degraded = false;
  /// The operand, retained only when the artifact is updatable
  /// (Engine::update applies deltas to it); empty otherwise. The hybrid
  /// pipes read the columns gathered into `hybrid` instead.
  DenseMatrix<fp16_t> lhs;

  double compile_seconds = 0.0;   ///< measured, cache misses only
  std::size_t footprint_bytes = 0;  ///< resident size charged to the cache

  /// Monotonic position within an updatable lineage: 0 for a fresh
  /// compile, +1 per successful Engine::update that produced this
  /// artifact. Surfaced through the jigsaw.engine.update.* metrics.
  std::uint64_t generation = 0;
  bool updatable = false;  ///< compiled with EngineOptions::Compile::updatable
  /// Set on updatable artifacts: the shared RCU cell Engine::update
  /// publishes successor generations through (see Lineage). Every
  /// generation of one compile holds the same cell.
  std::shared_ptr<Lineage> lineage;

  /// True on the hybrid dense-TC / CUDA-core pipes (always under kHybrid,
  /// under kChecked only after degradation).
  bool hybrid_route() const {
    return hybrid.has_value() &&
           (policy == ExecutionPolicy::kHybrid || degraded);
  }
  /// The SpTC format at the compiled BLOCK_TILE (kRaw execute may pick
  /// another candidate per request n).
  const core::JigsawFormat& format() const {
    return hybrid_route() ? hybrid->format : plan.formats[primary];
  }
};

/// RCU publication cell shared by every generation of one updatable
/// compile. Readers (Engine::latest on the submit path) copy the head
/// weak_ptr under head_mu — a critical section of one refcount bump, with
/// promotion and every artifact access outside the lock; no reader
/// registration, and the shared_ptr refcount of the artifact a reader is
/// holding IS the grace period, so a superseded generation is freed
/// exactly when its last in-flight request finishes. (Not
/// std::atomic<std::weak_ptr>: libstdc++'s _Sp_atomic is itself a
/// spinlock, and in GCC 12 its load() unlocks with a relaxed fetch_sub —
/// no release edge over _M_ptr, which ThreadSanitizer rightly reports. A
/// named mutex with the same-sized critical section costs the same and
/// is analyzable.) Engine::update is the only writer and serializes on
/// writer_mu; it takes head_mu only for the final pointer swap, never
/// while replanning. The head is weak to break the cycle with
/// CompiledMatrix::lineage: the plan cache (which Engine::update inserts
/// every new generation into) is what keeps the newest generation
/// resident, and latest() falls back to the caller's own handle if the
/// head has been evicted and dropped everywhere.
struct Lineage {
  /// Snapshot of the published head; promote outside the lock.
  [[nodiscard]] std::weak_ptr<const CompiledMatrix> head() const
      EXCLUDES(head_mu) {
    MutexLock lock(head_mu);
    return head_;
  }

  /// Publishes the next generation (writer side; the linearization point
  /// of Engine::update).
  void publish(std::weak_ptr<const CompiledMatrix> next) EXCLUDES(head_mu) {
    MutexLock lock(head_mu);
    head_ = std::move(next);
  }

  Mutex writer_mu;

 private:
  mutable Mutex head_mu;
  std::weak_ptr<const CompiledMatrix> head_ GUARDED_BY(head_mu);
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Compiles (or fetches from cache) the serving artifact for `a`.
  /// Typed failures: kInvalidArgument (empty operand, bad BLOCK_TILE),
  /// kReorderFailed (kRaw policy and no candidate reorder succeeded),
  /// kInternal (a freshly built format failed validation),
  /// kCapacityExhausted (artifact larger than a cache shard). Requests
  /// with a ReorderOptions::column_filter are compiled but never cached
  /// (a std::function has no stable identity to key on).
  [[nodiscard]] Result<std::shared_ptr<const CompiledMatrix>> compile(
      const DenseMatrix<fp16_t>& a, const EngineOptions& options = {});

  /// Enqueues one RHS against a compiled artifact on the worker pool. The
  /// RHS is taken by value (moved into the job); the artifact is shared
  /// read-only. The future resolves to the exact product or a typed
  /// error; worker threads never throw.
  std::future<Result<DenseMatrix<float>>> submit(
      std::shared_ptr<const CompiledMatrix> handle, DenseMatrix<fp16_t> b,
      EngineOptions::Run run = {});

  /// Synchronous execution on the caller's thread (submit without the
  /// pool — same routing, same errors).
  [[nodiscard]] Result<DenseMatrix<float>> execute(
      const CompiledMatrix& handle, const DenseMatrix<fp16_t>& b,
      const EngineOptions::Run& run = {}) const;

  /// Simulated kernel report of executing this artifact against an
  /// n-column RHS at the compiled version. Raw artifacts report the
  /// BLOCK_TILE candidate execute picks (folded from the stored walks);
  /// degraded/hybrid artifacts report the fused three-pipe kernel. The
  /// only costing the engine does: execute itself only computes.
  gpusim::KernelReport cost(const CompiledMatrix& handle, std::size_t n,
                            const EngineOptions::Run& run = {}) const;

  /// Applies a SparseDelta to an updatable artifact's source operand and
  /// rebuilds only the BLOCK_TILE row panels it touches. Reorder and cost
  /// walks depend only on the nonzero pattern, so only panels where an
  /// entry flipped between zero and nonzero (±0 is zero) are re-planned
  /// (core::reorder_panels) and re-walked; the others only get their
  /// format segments rebuilt (JigsawFormat::rebuild_panels). The result
  /// is published as the next generation
  /// through the artifact's Lineage: in-flight submits finish
  /// on the generation they started with, Engine::latest returns the new
  /// one. The delta is applied against the lineage's current head (not
  /// necessarily `handle`), so callers may keep updating through a stale
  /// handle. Degraded/hybrid artifacts and deltas that defeat the
  /// incremental plan fall back to a full recompile internally — still
  /// published atomically, still bit-identical to a fresh compile of the
  /// mutated matrix. Failure atomicity: on any error (kInvalidArgument
  /// for a non-updatable handle or out-of-range entries, kReorderFailed
  /// under kRaw, kCapacityExhausted when the new generation cannot fit
  /// its cache shard, kInternal) the previous generation stays published,
  /// cached, and serving, bit-identically untouched.
  [[nodiscard]] Result<std::shared_ptr<const CompiledMatrix>> update(
      const std::shared_ptr<const CompiledMatrix>& handle,
      const SparseDelta& delta);

  /// Latest published generation of the handle's lineage — one brief
  /// head-pointer copy, safe to call per request on the submit hot path.
  /// Non-updatable handles (and a lineage whose head was evicted and
  /// dropped everywhere) return the handle itself.
  [[nodiscard]] static std::shared_ptr<const CompiledMatrix> latest(
      const std::shared_ptr<const CompiledMatrix>& handle);

  CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }
  const EngineConfig& config() const { return config_; }
  int worker_count() const { return pool_.size(); }

 private:
  [[nodiscard]] Result<std::shared_ptr<CompiledMatrix>> compile_artifact(
      const DenseMatrix<fp16_t>& a, const EngineOptions& options,
      ExecutionPolicy policy, const CacheKey& key) const;

  /// Builds the successor artifact for `update` from the mutated operand
  /// (moved in and retained) and its content hash: the incremental splice
  /// off an SpTC-only base, a full recompile off a degraded/hybrid one.
  /// Generation/lineage stamping happens in update().
  [[nodiscard]] Result<std::shared_ptr<CompiledMatrix>> update_artifact(
      const CompiledMatrix& base, DenseMatrix<fp16_t> a2,
      std::uint64_t matrix_hash, const std::vector<bool>& value_dirty,
      const std::vector<bool>& mask_dirty) const;

  /// Shared artifact tail: validates format(), computes the resident
  /// footprint (updatable: with the operand the caller retains) and
  /// stamps the updatable flag.
  [[nodiscard]] Status finalize_artifact(CompiledMatrix& cm) const;

  EngineConfig config_;
  PlanCache cache_;
  ThreadPool pool_;
};

/// Content hash — the cache's matrix identity: a shape hash plus the sum
/// (mod 2^64) of one term per row, which mixes the row index with a
/// word-at-a-time hash of the row's bits. Engine::update swaps the terms
/// of the rows it changed instead of re-hashing. Exposed for tests.
std::uint64_t matrix_content_hash(const DenseMatrix<fp16_t>& a);

/// Hash of every option that changes the compiled artifact (policy plus
/// the compile section; run-section options never affect the artifact).
/// ReorderOptions::max_threads is excluded — plans are thread-count
/// invariant. Exposed for tests.
std::uint64_t options_content_hash(const EngineOptions& options,
                                   ExecutionPolicy resolved_policy);

}  // namespace jigsaw::engine

namespace jigsaw {
using engine::CacheStats;
using engine::CompiledMatrix;
using engine::Engine;
using engine::EngineConfig;
using engine::SparseDelta;  // NOLINT(misc-unused-using-decls)
using core::EngineOptions;    // NOLINT(misc-unused-using-decls)
using core::ExecutionPolicy;  // NOLINT(misc-unused-using-decls)
}  // namespace jigsaw
