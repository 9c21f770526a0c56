// Serving engine (src/engine): the unified compile/submit facade, the
// fingerprint-keyed sharded LRU plan cache, and concurrent execution on
// the worker pool. The acceptance contract of the tier:
//   * a same-content recompile is a cache hit — the same CompiledMatrix
//     pointer comes back and no second reorder runs (proved through the
//     obs "reorder.plans" counter);
//   * eviction honors the capacity-bytes bound, LRU first;
//   * concurrent submits are bit-identical to single-thread execution
//     and allclose to the dense reference (differential-harness sweep);
//   * compile under a reorder fault follows the policy: kRaw returns a
//     typed kReorderFailed, kChecked degrades onto the hybrid pipes and
//     stays exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "dlmc/suite.hpp"
#include "engine/engine.hpp"
#include "matrix/reference.hpp"
#include "obs/metrics.hpp"

namespace jigsaw::engine {
namespace {

struct SweepCase {
  std::size_t m, k;
  int sparsity_pct;
  std::size_t v;
  std::uint64_t seed;
};

/// Subset of the differential-harness ladder (tests/test_differential.cpp):
/// sparsity rungs crossed with vector widths plus a ragged shape.
const std::vector<SweepCase>& sweep_cases() {
  static const std::vector<SweepCase> kCases = {
      {64, 128, 70, 2, 11},  {64, 128, 80, 2, 21},  {128, 256, 80, 4, 22},
      {64, 128, 90, 8, 31},  {128, 256, 98, 8, 42}, {56, 100, 85, 2, 51},
      {100, 130, 92, 4, 52},
  };
  return kCases;
}

DenseMatrix<fp16_t> lhs_for(const SweepCase& c) {
  return dlmc::make_lhs({c.m, c.k}, c.sparsity_pct / 100.0, c.v, c.seed)
      .values();
}

DenseMatrix<fp16_t> sample_lhs(std::uint64_t seed = 11) {
  return dlmc::make_lhs({64, 128}, 0.8, 4, seed).values();
}

/// The reorder-breaking matrix from tests/test_checked.cpp: at
/// BLOCK_TILE 16, panel 0 holds an all-ones 16x16 block (every row has 16
/// nonzeros — structurally impossible under 2:4) plus one straggler
/// column; panel 1 is trivially compliant.
DenseMatrix<fp16_t> adversarial_matrix() {
  DenseMatrix<fp16_t> a(32, 32);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) a(r, c) = fp16_t(1.0f);
  }
  a(5, 24) = fp16_t(2.0f);
  for (std::size_t r = 0; r < 16; ++r) {
    a(16 + r, r) = fp16_t(0.5f + 0.03125f * static_cast<float>(r));
  }
  return a;
}

double counter_value(const char* name) {
  return obs::counter(name).value();
}

bool bit_identical(const DenseMatrix<float>& x, const DenseMatrix<float>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Exact equality of two simulated reports: duration and every counter.
void expect_same_report(const gpusim::KernelReport& x,
                        const gpusim::KernelReport& y) {
  EXPECT_EQ(x.name, y.name);
  EXPECT_EQ(x.duration_cycles, y.duration_cycles);
  EXPECT_EQ(x.duration_us, y.duration_us);
  const gpusim::KernelCounters& a = x.counters;
  const gpusim::KernelCounters& b = y.counters;
  EXPECT_EQ(a.tc_fp16_macs, b.tc_fp16_macs);
  EXPECT_EQ(a.sptc_macs, b.sptc_macs);
  EXPECT_EQ(a.tc_int8_macs, b.tc_int8_macs);
  EXPECT_EQ(a.cuda_macs, b.cuda_macs);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.l2_read_bytes, b.l2_read_bytes);
  EXPECT_EQ(a.smem_load_transactions, b.smem_load_transactions);
  EXPECT_EQ(a.smem_store_transactions, b.smem_store_transactions);
  EXPECT_EQ(a.smem_bank_conflicts, b.smem_bank_conflicts);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.long_scoreboard_warp_cycles, b.long_scoreboard_warp_cycles);
  EXPECT_EQ(a.short_scoreboard_warp_cycles, b.short_scoreboard_warp_cycles);
  EXPECT_EQ(a.barriers, b.barriers);
}

/// A matrix the checked tier degrades onto the hybrid pipes (at 50%
/// sparsity whole panels fail the §4.3 reorder).
DenseMatrix<fp16_t> degrading_lhs() {
  return dlmc::make_lhs({128, 256}, 0.5, 2, 77).values();
}

// ---- Cache identity -------------------------------------------------------

TEST(EngineCache, RecompileIsAHitWithNoSecondReorder) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  Engine engine;
  const auto a = sample_lhs();

  auto first = engine.compile(a);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const double reorders_after_first = counter_value("reorder.plans");
  EXPECT_GT(reorders_after_first, 0.0);

  // Same content, same options — by a separate (copied) matrix object, so
  // the hit is keyed on content, not identity.
  const DenseMatrix<fp16_t> copy = a;
  auto second = engine.compile(copy);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get())
      << "cache hit must return the same CompiledMatrix";
  EXPECT_EQ(counter_value("reorder.plans"), reorders_after_first)
      << "a cache hit must not re-run the reorder";
  EXPECT_EQ(counter_value("engine.cache.hits"), 1.0);
  EXPECT_EQ(counter_value("engine.cache.misses"), 1.0);

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, first.value()->footprint_bytes);
  obs::set_metrics_enabled(false);
}

TEST(EngineCache, DifferentOptionsAndContentMissSeparately) {
  Engine engine;
  const auto a = sample_lhs(11);

  auto base = engine.compile(a);
  ASSERT_TRUE(base.ok());

  EngineOptions other;
  other.compile.reorder.seed = 99;  // plan-affecting knob -> new artifact
  auto reseeded = engine.compile(a, other);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(base.value().get(), reseeded.value().get());

  auto different = engine.compile(sample_lhs(12));
  ASSERT_TRUE(different.ok());
  EXPECT_NE(base.value().get(), different.value().get());

  EXPECT_EQ(engine.cache_stats().entries, 3u);
  EXPECT_EQ(engine.cache_stats().misses, 3u);
}

TEST(EngineCache, ColumnFilterRequestsBypassTheCache) {
  Engine engine;
  const auto a = sample_lhs();
  EngineOptions options;
  options.compile.reorder.column_filter = [](std::size_t,
                                             std::uint32_t) { return true; };
  auto first = engine.compile(a, options);
  auto second = engine.compile(a, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().get(), second.value().get());
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

// ---- Eviction and the byte bound ------------------------------------------

TEST(EngineCache, EvictionHonorsTheCapacityBound) {
  const auto a = sample_lhs(1);
  Engine probe;
  auto probed = probe.compile(a);
  ASSERT_TRUE(probed.ok());
  const std::size_t artifact_bytes = probed.value()->footprint_bytes;

  // Room for two artifacts of this shape, one shard so LRU order is
  // global. Every matrix below has the same shape and sparsity, so the
  // footprints are nearly identical.
  EngineConfig config;
  config.cache_capacity_bytes = artifact_bytes * 5 / 2;
  config.cache_shards = 1;
  Engine engine(config);

  auto first = engine.compile(sample_lhs(1));
  auto second = engine.compile(sample_lhs(2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.cache_stats().evictions, 0u);
  EXPECT_LE(engine.cache_stats().bytes, engine.cache_stats().capacity_bytes);

  // Third artifact exceeds the bound -> the least-recently-used (first)
  // entry must go.
  auto third = engine.compile(sample_lhs(3));
  ASSERT_TRUE(third.ok());
  EXPECT_GE(engine.cache_stats().evictions, 1u);
  EXPECT_LE(engine.cache_stats().bytes, engine.cache_stats().capacity_bytes);

  // The survivor is still a hit; the evicted one recompiles as a miss.
  const std::uint64_t hits_before = engine.cache_stats().hits;
  auto second_again = engine.compile(sample_lhs(2));
  ASSERT_TRUE(second_again.ok());
  EXPECT_EQ(second_again.value().get(), second.value().get());
  EXPECT_EQ(engine.cache_stats().hits, hits_before + 1);

  const std::uint64_t misses_before = engine.cache_stats().misses;
  auto first_again = engine.compile(sample_lhs(1));
  ASSERT_TRUE(first_again.ok());
  EXPECT_NE(first_again.value().get(), first.value().get());
  EXPECT_EQ(engine.cache_stats().misses, misses_before + 1);
}

TEST(EngineCache, OversizedArtifactIsCapacityExhausted) {
  EngineConfig config;
  config.cache_capacity_bytes = 64;  // smaller than any real artifact
  config.cache_shards = 1;
  Engine engine(config);
  auto compiled = engine.compile(sample_lhs());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kCapacityExhausted);
}

TEST(EngineCache, ClearDropsEntriesButKeepsHandlesAlive) {
  Engine engine;
  const auto a = sample_lhs();
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok());
  engine.clear_cache();
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  EXPECT_EQ(engine.cache_stats().bytes, 0u);
  // The handed-out artifact still executes.
  const auto b = dlmc::make_rhs(a.cols(), 8, 3);
  auto result = engine.execute(*compiled.value(), b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(allclose(result.value(), reference_gemm(a, b), a.cols()));
}

// ---- Typed errors at the boundary -----------------------------------------

TEST(EngineErrors, EmptyMatrixAndBadTileAreInvalidArgument) {
  Engine engine;
  EXPECT_EQ(engine.compile(DenseMatrix<fp16_t>()).status().code(),
            StatusCode::kInvalidArgument);
  EngineOptions options;
  options.compile.block_tile = 48;
  EXPECT_EQ(engine.compile(sample_lhs(), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineErrors, WrongShapeSubmitResolvesToInvalidArgument) {
  Engine engine;
  const auto a = sample_lhs();
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok());
  auto future =
      engine.submit(compiled.value(), dlmc::make_rhs(a.cols() + 16, 8, 3));
  EXPECT_EQ(future.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.submit(nullptr, dlmc::make_rhs(a.cols(), 8, 3))
                .get()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---- Compile under fault: policy routing ----------------------------------

TEST(EnginePolicy, RawPolicyReturnsTypedReorderFailure) {
  Engine engine;
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  options.compile.version = core::KernelVersion::kV1;  // single candidate
  options.compile.block_tile = 16;
  options.compile.reorder.rescue_attempts = 0;
  auto compiled = engine.compile(adversarial_matrix(), options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kReorderFailed);
}

TEST(EnginePolicy, CheckedPolicyDegradesTheSameFaultAndStaysExact) {
  Engine engine;
  EngineOptions options;
  options.policy = ExecutionPolicy::kChecked;
  options.compile.block_tile = 16;
  options.compile.reorder.tile.block_tile_m = 16;
  const auto a = adversarial_matrix();
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CompiledMatrix& handle = *compiled.value();
  EXPECT_TRUE(handle.degraded);
  ASSERT_TRUE(handle.hybrid.has_value());
  EXPECT_EQ(handle.degradation.panels_degraded, 1u);
  EXPECT_EQ(handle.degradation.panels_total, 2u);

  const auto b = dlmc::make_rhs(a.cols(), 16, 7);
  auto result = engine.submit(compiled.value(), b).get();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(allclose(result.value(), reference_gemm(a, b), a.cols()));
}

TEST(EnginePolicy, HybridAndRawRoutesMatchTheReference) {
  Engine engine;
  const auto a = sample_lhs();
  const auto b = dlmc::make_rhs(a.cols(), 16, 5);
  const auto ref = reference_gemm(a, b);
  for (const ExecutionPolicy policy :
       {ExecutionPolicy::kRaw, ExecutionPolicy::kChecked,
        ExecutionPolicy::kHybrid}) {
    EngineOptions options;
    options.policy = policy;
    auto compiled = engine.compile(a, options);
    ASSERT_TRUE(compiled.ok())
        << core::to_string(policy) << ": " << compiled.status().to_string();
    EXPECT_EQ(compiled.value()->policy, policy);
    auto result = engine.submit(compiled.value(), b).get();
    ASSERT_TRUE(result.ok()) << core::to_string(policy);
    EXPECT_TRUE(allclose(result.value(), ref, a.cols()))
        << core::to_string(policy);
  }
  // Three policies -> three distinct cache entries (policy is part of the
  // options hash).
  EXPECT_EQ(engine.cache_stats().entries, 3u);
}

// ---- Steady-state allocation behavior -------------------------------------

TEST(EngineSteadyState, WarmedUpSubmitsAllocateNothing) {
  // The zero-allocation contract of the serving path: after a worker's
  // arena has grown to the request shape and the pool's caches are primed,
  // the kernel proper (the window `jigsaw.engine.submit.allocations`
  // counts) must touch the heap zero times per submit.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  EngineConfig config;
  config.worker_threads = 1;  // one worker -> one arena -> deterministic
  Engine engine(config);

  const auto a = lhs_for({128, 256, 80, 4, 22});
  const auto b = dlmc::make_rhs(256, 64, 7);
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();

  // Warm-up: grows the worker arena, primes thread-pool and obs caches.
  for (int i = 0; i < 3; ++i) {
    auto warm = engine.submit(compiled.value(), b).get();
    ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  }

  const double before = counter_value("jigsaw.engine.submit.allocations");
  for (int i = 0; i < 5; ++i) {
    auto result = engine.submit(compiled.value(), b).get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
  const double delta =
      counter_value("jigsaw.engine.submit.allocations") - before;
  EXPECT_EQ(delta, 0.0)
      << "steady-state submits performed " << delta << " heap allocations";
  obs::set_metrics_enabled(false);
}

TEST(EngineSteadyState, AllocationCounterTracksColdSubmits) {
  // Counterpart guard: the counter is live, not a constant zero — the
  // first (cold) submit grows the arena inside the counted window.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  EngineConfig config;
  config.worker_threads = 1;
  Engine engine(config);

  const auto a = lhs_for({64, 128, 80, 2, 21});
  const auto b = dlmc::make_rhs(128, 32, 9);
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  auto first = engine.submit(compiled.value(), b).get();
  ASSERT_TRUE(first.ok());
  EXPECT_GT(counter_value("jigsaw.engine.submit.allocations"), 0.0)
      << "cold submit should have grown the worker arena in-window";
  obs::set_metrics_enabled(false);
}

TEST(EngineSteadyState, WarmedUpSubmitCountsZeroBesideAnAllocatingThread) {
  // The counter is per thread: another thread allocating flat out during
  // the measured submits must not leak into the window.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  EngineConfig config;
  config.worker_threads = 1;
  Engine engine(config);
  const auto a = lhs_for({128, 256, 80, 4, 22});
  const auto b = dlmc::make_rhs(256, 64, 7);
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.submit(compiled.value(), b).get().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> churned{0};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto block = std::make_unique<std::uint64_t[]>(64);
      block[0] = churned.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (churned.load() == 0) std::this_thread::yield();
  const double before = counter_value("jigsaw.engine.submit.allocations");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.submit(compiled.value(), b).get().ok());
  }
  const double delta =
      counter_value("jigsaw.engine.submit.allocations") - before;
  const std::uint64_t churned_before_stop = churned.load();
  stop.store(true);
  churn.join();
  EXPECT_GT(churned_before_stop, 0u);
  EXPECT_EQ(delta, 0.0) << "another thread's allocations leaked into the "
                           "submit window: "
                        << delta;
  obs::set_metrics_enabled(false);
}

// ---- One execute path: costing happens at compile time --------------------

TEST(EngineExecutePath, RawExecuteMatchesJigsawRunAcrossN) {
  // kRaw picks its BLOCK_TILE per request by folding the walks stored at
  // compile time; product and choice must equal jigsaw_run's, which walks
  // every candidate afresh. n covers partial and odd 64-wide block counts.
  Engine engine;
  const auto a = dlmc::make_lhs({128, 256}, 0.85, 4, 5).values();
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CompiledMatrix& handle = *compiled.value();
  ASSERT_EQ(handle.plan.formats.size(), 3u);
  ASSERT_EQ(handle.walks.size(), 3u);
  const std::vector<float> bias(a.rows(), 0.125f);

  for (const std::size_t n : {1, 8, 64, 130, 192, 256, 320, 512}) {
    const auto b = dlmc::make_rhs(a.cols(), n, 40 + n);
    for (const bool fused : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " epilogue=" << fused);
      EngineOptions::Run run;
      if (fused) {
        run.epilogue.bias = &bias;
        run.epilogue.activation = core::Epilogue::Activation::kGelu;
      }
      const core::JigsawRunResult ref =
          core::jigsaw_run(handle.plan, b, engine.config().cost_model, run);
      auto got = engine.execute(handle, b, run);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      ASSERT_TRUE(ref.c.has_value());
      EXPECT_TRUE(bit_identical(got.value(), *ref.c));
      const core::BlockTileChoice choice = core::choose_block_tile(
          handle.plan, handle.walks, n, engine.config().cost_model,
          run.epilogue);
      EXPECT_EQ(handle.plan.formats[choice.index].tile_config().block_tile_m,
                ref.selected_block_tile);
      expect_same_report(engine.cost(handle, n, run), ref.report);
    }
  }
}

TEST(EngineExecutePath, CostEqualsCoreCostingForEveryRoute) {
  // Engine::cost is the only place the engine costs; its reports must be
  // exactly what the core entry points report for the same artifact.
  Engine engine;
  const gpusim::CostModel& cm = engine.config().cost_model;
  const auto clean = sample_lhs();
  const auto degrading = degrading_lhs();
  for (const std::size_t n : {8, 130, 256}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    EngineOptions raw;
    raw.policy = ExecutionPolicy::kRaw;
    auto r = engine.compile(clean, raw);
    ASSERT_TRUE(r.ok());
    expect_same_report(
        engine.cost(*r.value(), n),
        core::jigsaw_run(r.value()->plan, dlmc::make_rhs(clean.cols(), n, 1),
                         cm, {.compute_values = false})
            .report);

    auto c = engine.compile(clean);
    ASSERT_TRUE(c.ok());
    ASSERT_FALSE(c.value()->degraded);
    expect_same_report(engine.cost(*c.value(), n),
                       core::jigsaw_cost(c.value()->format(), n,
                                         core::KernelVersion::kV4, cm));

    auto d = engine.compile(degrading);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.value()->degraded);
    const auto bd = dlmc::make_rhs(degrading.cols(), n, 2);
    expect_same_report(engine.cost(*d.value(), n),
                       core::hybrid_run(*d.value()->hybrid, bd, cm,
                                        {.compute_values = false})
                           .report);
    auto checked = core::run_spmm_checked(degrading, bd, cm);
    ASSERT_TRUE(checked.ok());
    expect_same_report(engine.cost(*d.value(), n), checked.value().report);

    EngineOptions hybrid;
    hybrid.policy = ExecutionPolicy::kHybrid;
    auto h = engine.compile(clean, hybrid);
    ASSERT_TRUE(h.ok());
    expect_same_report(
        engine.cost(*h.value(), n),
        core::hybrid_cost(*h.value()->hybrid, n, cm));
  }
}

TEST(EngineExecutePath, WarmExecutesWalkNoPanelAndAllocateNothing) {
  // Regression guard for the cost-free execute path: once warm, kRaw and
  // hybrid-pipe requests neither walk a panel (kernel.panel_walks) nor
  // touch the heap inside the compute window.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  EngineConfig config;
  config.worker_threads = 1;
  Engine engine(config);
  EngineOptions raw;
  raw.policy = ExecutionPolicy::kRaw;
  EngineOptions hybrid;
  hybrid.policy = ExecutionPolicy::kHybrid;
  const auto clean = dlmc::make_lhs({128, 256}, 0.85, 4, 5).values();
  const auto degrading = degrading_lhs();
  struct Case {
    const DenseMatrix<fp16_t>* a;
    EngineOptions options;
  };
  const std::vector<Case> cases = {
      {&clean, raw}, {&clean, hybrid}, {&degrading, EngineOptions{}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(core::to_string(c.options.policy));
    auto compiled = engine.compile(*c.a, c.options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    const auto b = dlmc::make_rhs(c.a->cols(), 96, 3);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine.submit(compiled.value(), b).get().ok());
    }
    const double walks = counter_value("kernel.panel_walks");
    const double allocs = counter_value("jigsaw.engine.submit.allocations");
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine.submit(compiled.value(), b).get().ok());
    }
    EXPECT_EQ(counter_value("kernel.panel_walks"), walks);
    EXPECT_EQ(counter_value("jigsaw.engine.submit.allocations"), allocs);
  }
  obs::set_metrics_enabled(false);
}

TEST(EngineExecutePath, HybridArtifactsKeepGatheredColumnsNotTheOperand) {
  Engine engine;
  const auto a = degrading_lhs();
  for (const bool updatable : {false, true}) {
    for (const ExecutionPolicy policy :
         {ExecutionPolicy::kChecked, ExecutionPolicy::kHybrid}) {
      SCOPED_TRACE(::testing::Message() << core::to_string(policy)
                                        << " updatable=" << updatable);
      EngineOptions options;
      options.policy = policy;
      options.compile.updatable = updatable;
      auto compiled = engine.compile(a, options);
      ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
      const CompiledMatrix& cm = *compiled.value();
      ASSERT_TRUE(cm.hybrid.has_value());
      EXPECT_GT(cm.hybrid->pipe_bytes(), 0u);
      const std::size_t operand = a.rows() * a.cols() * sizeof(fp16_t);
      // One stored format: the hybrid route keeps only its SpTC subset.
      EXPECT_TRUE(cm.plan.formats.empty());
      const std::size_t expected =
          cm.hybrid->format.memory_footprint().total() +
          cm.hybrid->pipe_bytes() + (updatable ? operand : 0);
      EXPECT_EQ(cm.footprint_bytes, expected);
      EXPECT_EQ(cm.lhs.size(), updatable ? a.size() : 0u);
      const auto b = dlmc::make_rhs(a.cols(), 48, 9);
      auto result = engine.execute(cm, b);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(allclose(result.value(), reference_gemm(a, b), a.cols()));
    }
  }
}

// ---- Concurrency ----------------------------------------------------------

TEST(EngineConcurrency, EightThreadSubmitsAreBitIdenticalToSingleThread) {
  EngineConfig config;
  config.worker_threads = 8;
  Engine engine(config);

  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, 32, c.seed + 500);
    auto compiled = engine.compile(a);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();

    // Single-thread result on the caller's thread.
    auto single = engine.execute(*compiled.value(), b);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE(allclose(single.value(), reference_gemm(a, b), a.cols()));

    // Eight concurrent submits of the same request must be bitwise equal
    // to the single-thread product (shared read-only artifact, exact
    // functional path — no nondeterminism allowed).
    std::vector<std::future<Result<DenseMatrix<float>>>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(engine.submit(compiled.value(), b));
    }
    for (auto& f : futures) {
      auto result = f.get();
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_TRUE(result.value() == single.value())
          << "concurrent submit diverged from single-thread execution";
    }
  }
}

TEST(EngineConcurrency, MixedMatricesInFlightStayIsolated) {
  EngineConfig config;
  config.worker_threads = 4;
  Engine engine(config);

  struct InFlight {
    DenseMatrix<fp16_t> a, b;
    std::future<Result<DenseMatrix<float>>> future;
  };
  std::vector<InFlight> jobs;
  for (const SweepCase& c : sweep_cases()) {
    auto a = lhs_for(c);
    auto b = dlmc::make_rhs(c.k, 16, c.seed + 900);
    auto compiled = engine.compile(a);
    ASSERT_TRUE(compiled.ok());
    auto future = engine.submit(compiled.value(), b);
    jobs.push_back({std::move(a), std::move(b), std::move(future)});
  }
  for (auto& job : jobs) {
    auto result = job.future.get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(allclose(result.value(), reference_gemm(job.a, job.b),
                         job.a.cols()));
  }
}

// ---- Options surface ------------------------------------------------------

TEST(EngineOptionsSurface, CheckedShimRoundTrips) {
  core::CheckedRunOptions shim;
  shim.tile.block_tile_m = 32;
  shim.cuda_fallback_max_nnz = 5;
  shim.reorder.seed = 1234;
  const EngineOptions options = shim.to_engine_options();
  EXPECT_EQ(options.policy, ExecutionPolicy::kChecked);
  EXPECT_EQ(options.compile.block_tile, 32);
  EXPECT_EQ(options.compile.cuda_route_max_nnz, 5u);
  EXPECT_EQ(options.compile.reorder.seed, 1234u);
  const core::CheckedRunOptions back = core::checked_options_from(options);
  EXPECT_EQ(back.tile.block_tile_m, 32);
  EXPECT_EQ(back.cuda_fallback_max_nnz, 5u);
  EXPECT_EQ(back.reorder.seed, 1234u);
}

TEST(EngineOptionsSurface, HashCoversPlanAffectingKnobsOnly) {
  const EngineOptions base;
  const std::uint64_t h0 =
      options_content_hash(base, ExecutionPolicy::kChecked);

  EngineOptions reseeded;
  reseeded.compile.reorder.seed = 7;
  EXPECT_NE(options_content_hash(reseeded, ExecutionPolicy::kChecked), h0);

  EXPECT_NE(options_content_hash(base, ExecutionPolicy::kRaw), h0);

  // Thread count never changes the plan, so it must not fragment the
  // cache; run-section options don't affect the artifact either.
  EngineOptions threaded;
  threaded.compile.reorder.max_threads = 3;
  threaded.run.compute_values = false;
  EXPECT_EQ(options_content_hash(threaded, ExecutionPolicy::kChecked), h0);
}

TEST(EngineOptionsSurface, MatrixHashIsContentBased) {
  const auto a = sample_lhs(11);
  const DenseMatrix<fp16_t> copy = a;
  EXPECT_EQ(matrix_content_hash(a), matrix_content_hash(copy));
  auto mutated = a;
  mutated(0, 0) = fp16_t(float(mutated(0, 0)) + 1.0f);
  EXPECT_NE(matrix_content_hash(a), matrix_content_hash(mutated));
  // Shape participates even when the payload bytes agree.
  EXPECT_NE(matrix_content_hash(DenseMatrix<fp16_t>(2, 8)),
            matrix_content_hash(DenseMatrix<fp16_t>(8, 2)));
}

}  // namespace
}  // namespace jigsaw::engine
