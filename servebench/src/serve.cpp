#include "serve.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "core/tile_search_cache.hpp"
#include "dlmc/suite.hpp"
#include "obs/trace.hpp"
#include "util.hpp"

namespace servebench {

namespace {

constexpr std::size_t kRhsPerClass = 4;      // distinct RHS per (matrix, n)
constexpr std::size_t kSampledEntries = 8;   // checked entries per response
constexpr std::size_t kPanelRows = 64;       // delta row-panel granularity
constexpr std::size_t kDeltaPanels = 2;      // adjacent panels per delta
constexpr double kDeltaShare = 0.01;         // delta entries / operand nnz
/// Requests may run this many update quotas ahead of the writer before
/// the dispenser holds them back, so the update:request mix stays fixed.
constexpr std::uint64_t kUpdateSlack = 2;

/// Benchmark-side span: always timed, recorded into the obs trace only
/// while tracing is on.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), start_(jigsaw::obs::trace_now_ns()) {}
  /// Ends the span; returns its duration in nanoseconds.
  std::uint64_t end() {
    const std::uint64_t dur = jigsaw::obs::trace_now_ns() - start_;
    if (jigsaw::obs::tracing_enabled()) {
      jigsaw::obs::record_span("bench", name_, start_, dur);
    }
    return dur;
  }

 private:
  const char* name_;
  std::uint64_t start_;
};

std::vector<WorkloadSpec> build_workloads() {
  using P = ExecutionPolicy;
  std::vector<WorkloadSpec> w;
  // Clean pruned-transformer block at the default policy: every panel
  // reorders, so every request takes jigsaw_compute_into.
  w.push_back(WorkloadSpec{
      .name = "serve_sptc",
      .matrices = {{1024, 1024, 0.90, 4, P::kAuto},
                   {1024, 1024, 0.95, 8, P::kAuto},
                   {4096, 1024, 0.90, 8, P::kAuto},
                   {4096, 1024, 0.95, 4, P::kAuto},
                   {1024, 4096, 0.90, 4, P::kAuto},
                   {1024, 4096, 0.95, 8, P::kAuto}},
      .n_mix = {64, 256},
      .class_repeats = 1,
      .requests_per_update = 0,
      .probe_updates = 300});
  // The routes off the fast path: partially degraded matrices at the
  // default policy (hybrid pipes, retained dense operand) and clean
  // matrices under kRaw (per-request BLOCK_TILE cost walk).
  w.push_back(WorkloadSpec{
      .name = "serve_fallback",
      .matrices = {{1024, 1024, 0.80, 8, P::kAuto},
                   {4096, 1024, 0.80, 8, P::kAuto},
                   {1024, 4096, 0.80, 4, P::kAuto},
                   {1024, 1024, 0.90, 4, P::kRaw},
                   {4096, 1024, 0.95, 8, P::kRaw}},
      .n_mix = {64, 256},
      .class_repeats = 1,
      .requests_per_update = 0,
      .probe_updates = 24});
  // Reads beside writes: requests through Engine::latest while a writer
  // streams value deltas through Engine::update into the first matrix,
  // as `jigsaw serve --update-every N` does into its one matrix; the
  // second lineage is served beside it and never moves. One update per
  // 16 requests is an arbitrary cadence (servebench/README.md shows how
  // the metrics respond to it).
  w.push_back(WorkloadSpec{
      .name = "weights_churn",
      .matrices = {{1024, 1024, 0.90, 4, P::kAuto},
                   {4096, 1024, 0.95, 4, P::kAuto}},
      .n_mix = {64, 256},
      .class_repeats = 4,
      .requests_per_update = 16});
  return w;
}

/// (matrix, n index) of each slot of a round, in an order shuffled per
/// round from the seed.
struct RequestClass {
  std::size_t matrix = 0;
  std::size_t n_index = 0;
};

std::vector<RequestClass> round_order(const WorkloadSpec& spec,
                                      std::uint64_t seed,
                                      std::uint64_t round) {
  std::vector<RequestClass> order;
  order.reserve(spec.round_size());
  for (std::size_t rep = 0; rep < spec.class_repeats; ++rep) {
    for (std::size_t m = 0; m < spec.matrices.size(); ++m) {
      for (std::size_t ni = 0; ni < spec.n_mix.size(); ++ni) {
        order.push_back({m, ni});
      }
    }
  }
  jigsaw::Rng rng(jigsaw::mix_seed(seed, 0x0bde5, round));
  rng.shuffle(order);
  return order;
}

/// Hands out request indices to the client threads in whole rounds and
/// paces the weights_churn writer at a fixed update:request ratio.
class Dispenser {
 public:
  Dispenser(const WorkloadSpec& spec, const LoopConfig& config,
            Clock::time_point deadline)
      : spec_(spec),
        seed_(config.seed),
        round_(config.first_round),
        deadline_(deadline),
        stop_(config.stop),
        order_(round_order(spec, config.seed, config.first_round)) {}

  /// Next request, or false once the deadline has passed at a round
  /// boundary.
  bool take(std::uint64_t& idx, RequestClass& cls) {
    std::unique_lock lock(mu_);
    const std::uint64_t ratio = spec_.requests_per_update;
    cv_.wait(lock, [&] {
      return ratio == 0 || next_ < ratio * (updates_done_ + kUpdateSlack);
    });
    const std::size_t r = spec_.round_size();
    if (!stopping_ && (Clock::now() >= deadline_ ||
                       (stop_ != nullptr && stop_->load()))) {
      stopping_ = true;
    }
    if (next_ % r == 0 && next_ > 0) {
      if (stopping_) {
        finished_ = true;
        cv_.notify_all();
        return false;
      }
      order_ = round_order(spec_, seed_, ++round_);
    }
    idx = next_++;
    cls = order_[idx % r];
    cv_.notify_all();
    return true;
  }

  /// Writer side: blocks until update `u` (0-based) is due. False when
  /// the run ended with fewer requests than that update needs.
  bool update_due(std::uint64_t u) {
    const std::uint64_t need = spec_.requests_per_update * (u + 1);
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return next_ >= need || finished_; });
    return next_ >= need;
  }

  void update_done() {
    std::lock_guard lock(mu_);
    ++updates_done_;
    cv_.notify_all();
  }

 private:
  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  std::uint64_t round_;
  const Clock::time_point deadline_;
  const std::atomic<bool>* stop_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RequestClass> order_;
  std::uint64_t next_ = 0;
  std::uint64_t updates_done_ = 0;
  bool stopping_ = false;
  bool finished_ = false;
};

}  // namespace

double LoopResult::window_rps() const {
  double sum = 0;
  for (double r : slice_requests) sum += r;
  return window_s > 0 ? sum / window_s : 0.0;
}

double LoopResult::throughput_rps() const {
  if (slice_requests.empty() || window_s <= 0) return 0.0;
  const double slice_s = window_s / static_cast<double>(slice_requests.size());
  std::vector<double> rates;
  for (double r : slice_requests) rates.push_back(r / slice_s);
  return quantile(rates, 0.5);
}

std::string MatrixSpec::label() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zux%zu sp%.2f v%zu %s", m, k, sparsity, v,
                jigsaw::core::to_string(policy == ExecutionPolicy::kAuto
                                            ? ExecutionPolicy::kChecked
                                            : policy));
  return buf;
}

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = build_workloads();
  return workloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::shared_ptr<const RefOperand> Inputs::mirror(std::size_t m,
                                                 std::uint64_t gen) {
  std::lock_guard lock(mirror_mu);
  if (m >= mirrors.size() || gen >= mirrors[m].size()) return nullptr;
  return mirrors[m][gen];
}

std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  for (std::size_t m = 0; m < spec.matrices.size(); ++m) {
    const MatrixSpec& ms = spec.matrices[m];
    in->lhs.push_back(
        jigsaw::dlmc::make_lhs({ms.m, ms.k}, ms.sparsity, ms.v).values());
    const auto& a = in->lhs.back();
    in->mirrors.push_back(
        {std::make_shared<const RefOperand>(RefOperand::from_dense(a))});
    auto& panels = in->panel_nonzeros.emplace_back(
        (a.rows() + kPanelRows - 1) / kPanelRows);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        if (!a(r, c).is_zero()) {
          panels[r / kPanelRows].emplace_back(static_cast<std::uint32_t>(r),
                                              static_cast<std::uint32_t>(c));
        }
      }
    }
    auto& rhs = in->rhs.emplace_back();
    auto& rhs_ref = in->rhs_ref.emplace_back();
    for (std::size_t ni = 0; ni < spec.n_mix.size(); ++ni) {
      auto& pool = rhs.emplace_back();
      auto& pool_ref = rhs_ref.emplace_back();
      for (std::size_t i = 0; i < kRhsPerClass; ++i) {
        pool.push_back(jigsaw::dlmc::make_rhs(
            ms.k, spec.n_mix[ni], jigsaw::mix_seed(seed, m, ni, i)));
        pool_ref.push_back(RefRhs::from_dense(pool.back()));
      }
    }
  }
  return in;
}

jigsaw::EngineOptions compile_options(const WorkloadSpec& spec,
                                      std::size_t matrix) {
  jigsaw::EngineOptions options;
  options.policy = spec.matrices[matrix].policy;
  options.compile.updatable = spec.churn();
  return options;
}

Served set_up(const WorkloadSpec& spec, const Inputs& in, int workers,
              OpCount& compiles, std::vector<double>* compile_ms) {
  Served s;
  jigsaw::EngineConfig config;
  config.worker_threads = workers;
  // Room for every artifact and generation several times over: nothing
  // is evicted, so a generation only leaves the cache when retired.
  config.cache_capacity_bytes = std::size_t{4} << 30;
  config.cache_shards = 8;
  s.engine = std::make_unique<Engine>(config);
  for (std::size_t m = 0; m < spec.matrices.size(); ++m) {
    ++compiles.attempted;
    Span span("bench.compile_cold");
    auto handle = s.engine->compile(in.lhs[m], compile_options(spec, m));
    const double ms = static_cast<double>(span.end()) / 1e6;
    if (compile_ms != nullptr) compile_ms->push_back(ms);
    if (!handle.ok()) {
      ++compiles.failed;
      std::fprintf(stderr, "compile %s failed: %s\n",
                   spec.matrices[m].label().c_str(),
                   handle.status().to_string().c_str());
      s.handles.push_back(nullptr);
      continue;
    }
    s.handles.push_back(handle.value());
  }
  return s;
}

Delta make_delta(const Inputs& in, std::size_t matrix, const RefOperand& base,
                 std::uint64_t delta_seed) {
  jigsaw::Rng rng(delta_seed);
  const auto& panels = in.panel_nonzeros[matrix];
  const std::size_t first = rng.next_below(panels.size() - kDeltaPanels + 1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> window;
  for (std::size_t p = first; p < first + kDeltaPanels; ++p) {
    window.insert(window.end(), panels[p].begin(), panels[p].end());
  }
  std::size_t nnz = 0;
  for (const auto& p : panels) nnz += p.size();
  const auto entries = static_cast<std::uint32_t>(std::min<std::size_t>(
      window.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   kDeltaShare * static_cast<double>(nnz)))));
  Delta d;
  std::vector<RefOperand::Edit> edits;
  edits.reserve(entries);
  for (std::uint32_t pick : rng.sample_without_replacement(
           static_cast<std::uint32_t>(window.size()), entries)) {
    const auto [r, c] = window[pick];
    // Rewrite an existing nonzero with a different nonzero value, so the
    // sparsity structure (and the reorder search space) stays fixed.
    float value = rng.uniform(0.25f, 1.0f);
    if (rng.next_below(2) == 0) value = -value;
    fp16_t v16(value);
    if (v16.bits() == fp16_t(base.at(r, c)).bits()) v16 = fp16_t(-value);
    d.delta.entries.push_back({r, c, v16});
    edits.push_back({r, c, v16});
  }
  d.after = std::make_shared<const RefOperand>(base.with_edits(edits));
  return d;
}

LoopResult run_loop(const WorkloadSpec& spec, Inputs& in, Served& served,
                    const LoopConfig& config) {
  LoopResult out;
  std::mutex out_mu;
  const auto start = Clock::now();
  Dispenser dispenser(spec, config,
                      start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      config.seconds)));
  const double cpu0 = process_cpu_seconds();
  // Generation the writer has published per matrix: latest() must never
  // return an older one once this says it is out. Requests resolve
  // through Engine::latest from the generation-0 handles of set_up.
  const auto& roots = served.handles;
  std::vector<std::atomic<std::uint64_t>> published(roots.size());
  for (std::size_t m = 0; m < roots.size(); ++m) {
    published[m].store(roots[m] ? Engine::latest(roots[m])->generation : 0);
  }

  constexpr std::size_t kSlices = 10;
  const double slice_s = config.seconds / kSlices;
  out.slice_requests.assign(kSlices, 0.0);
  auto client = [&]() {
    LoopResult local;
    local.slice_requests.assign(kSlices, 0.0);
    std::vector<std::uint64_t> last_seen(spec.matrices.size(), 0);
    std::uint64_t idx = 0;
    RequestClass cls;
    while (dispenser.take(idx, cls)) {
      const std::size_t m = cls.matrix;
      const std::uint64_t h =
          jigsaw::mix_seed(config.seed, 0x5e55, config.first_round, idx);
      const std::size_t ri = h % kRhsPerClass;
      ++local.requests.attempted;
      std::shared_ptr<const CompiledMatrix> handle = roots[m];
      if (handle == nullptr) {
        ++local.requests.failed;
        continue;
      }
      bool rolled_back = false;
      if (spec.churn()) {
        const std::uint64_t floor = published[m].load();
        Span span("bench.latest");
        handle = Engine::latest(roots[m]);
        local.latest_us.push_back(static_cast<double>(span.end()) / 1e3);
        const std::uint64_t gen = handle->generation;
        rolled_back = gen < floor || gen < last_seen[m];
        last_seen[m] = std::max(last_seen[m], gen);
      }
      jigsaw::DenseMatrix<fp16_t> b = in.rhs[m][cls.n_index][ri];
      const std::size_t k = b.rows(), n = b.cols();
      const auto sent = Clock::now();
      Span request("bench.request");
      Span submit("bench.submit");
      auto future = served.engine->submit(handle, std::move(b));
      const std::uint64_t submit_ns = submit.end();
      auto result = future.get();
      const std::uint64_t request_ns = request.end();
      const auto done = Clock::now();
      // Count the request into the window's slices by the share of its
      // latency that falls inside each.
      const double span_s = seconds_between(sent, done);
      const double a = std::max(0.0, seconds_between(start, sent));
      const double z = std::min(config.seconds, seconds_between(start, done));
      for (auto i = static_cast<std::size_t>(a / slice_s);
           i < kSlices && static_cast<double>(i) * slice_s < z; ++i) {
        const double lo = std::max(a, static_cast<double>(i) * slice_s);
        const double hi = std::min(z, static_cast<double>(i + 1) * slice_s);
        if (hi > lo) local.slice_requests[i] += (hi - lo) / span_s;
      }
      if (!result.ok() || rolled_back) {
        ++local.requests.failed;
        if (rolled_back) ++local.rollbacks;
        if (!result.ok()) continue;
      }
      local.latency_ms.push_back(static_cast<double>(request_ns) / 1e6);
      local.submit_us.push_back(static_cast<double>(submit_ns) / 1e3);
      local.b_staging_mb.push_back(static_cast<double>(k * n * 4) / 1e6);
      const auto ref = in.mirror(m, handle->generation);
      if (ref == nullptr) {
        local.check_failures += kSampledEntries;
        continue;
      }
      Span check("bench.check");
      local.check_failures +=
          check_sampled(*ref, in.rhs_ref[m][cls.n_index][ri], result.value(),
                        jigsaw::mix_seed(h, 0xc4ec), kSampledEntries);
      check.end();
    }
    std::lock_guard lock(out_mu);
    out.requests.attempted += local.requests.attempted;
    out.requests.failed += local.requests.failed;
    out.check_failures += local.check_failures;
    for (std::size_t i = 0; i < kSlices; ++i) {
      out.slice_requests[i] += local.slice_requests[i];
    }
    out.rollbacks += local.rollbacks;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out.latency_ms, local.latency_ms);
    append(out.submit_us, local.submit_us);
    append(out.latest_us, local.latest_us);
    append(out.b_staging_mb, local.b_staging_mb);
  };

  auto writer = [&]() {
    for (std::uint64_t u = 0; dispenser.update_due(u); ++u) {
      const std::size_t m = 0;
      ++out.updates.attempted;
      const std::shared_ptr<const CompiledMatrix> current =
          Engine::latest(roots[m]);
      if (current == nullptr) {
        ++out.updates.failed;
        dispenser.update_done();
        continue;
      }
      const std::uint64_t gen = current->generation;
      const auto base = in.mirror(m, gen);
      if (base == nullptr) {
        ++out.updates.failed;
        dispenser.update_done();
        continue;
      }
      Delta d = make_delta(
          in, m, *base,
          jigsaw::mix_seed(config.seed, 0xde17a, config.first_round, u));
      {
        // The mirror of generation gen + 1 is in place before Engine::update
        // can publish it to the readers.
        std::lock_guard lock(in.mirror_mu);
        in.mirrors[m].resize(gen + 1);
        in.mirrors[m].push_back(d.after);
      }
      Span span("bench.update");
      auto updated = served.engine->update(current, d.delta);
      out.update_ms.push_back(static_cast<double>(span.end()) / 1e6);
      if (!updated.ok() || updated.value()->generation != gen + 1) {
        ++out.updates.failed;
        std::fprintf(stderr, "update failed: %s\n",
                     updated.ok() ? "unexpected generation"
                                  : updated.status().to_string().c_str());
      } else {
        published[m].store(gen + 1);
      }
      dispenser.update_done();
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < config.slots; ++i) threads.emplace_back(client);
  if (spec.churn()) threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  out.wall_s = seconds_between(start, Clock::now());
  out.window_s = config.seconds;
  out.cpu_s = process_cpu_seconds() - cpu0;
  return out;
}

std::size_t check_every_class(const WorkloadSpec& spec, Inputs& in,
                              Served& served, OpCount& requests) {
  std::size_t bad_classes = 0;
  for (std::size_t m = 0; m < spec.matrices.size(); ++m) {
    for (std::size_t ni = 0; ni < spec.n_mix.size(); ++ni) {
      ++requests.attempted;
      const auto handle = Engine::latest(served.handles[m]);
      if (handle == nullptr) {
        ++requests.failed;
        continue;
      }
      auto result =
          served.engine->submit(handle, in.rhs[m][ni][0]).get();
      if (!result.ok()) {
        ++requests.failed;
        continue;
      }
      const auto ref = in.mirror(m, handle->generation);
      if (ref == nullptr ||
          check_full(*ref, in.rhs_ref[m][ni][0], result.value()) != 0) {
        ++bad_classes;
        std::fprintf(stderr, "full check failed: %s n=%zu\n",
                     spec.matrices[m].label().c_str(), spec.n_mix[ni]);
      }
    }
  }
  return bad_classes;
}

SimCosts simulate_round(const WorkloadSpec& spec, const Served& served) {
  SimCosts out;
  for (std::size_t m = 0; m < spec.matrices.size(); ++m) {
    if (served.handles[m] == nullptr) continue;
    for (std::size_t n : spec.n_mix) {
      Span span("bench.cost");
      out.reports.push_back(served.engine->cost(*served.handles[m], n));
      out.call_ms.push_back(static_cast<double>(span.end()) / 1e6);
    }
  }
  return out;
}

ProbeResult run_update_probe(const WorkloadSpec& spec, Inputs& in,
                             Served& served, std::uint64_t seed, int slots) {
  ProbeResult out;
  const std::size_t m = 0;
  jigsaw::EngineOptions options = compile_options(spec, m);
  options.compile.updatable = true;
  ++out.compiles.attempted;
  auto compiled = served.engine->compile(in.lhs[m], options);
  if (!compiled.ok()) {
    ++out.compiles.failed;
    return out;
  }
  std::shared_ptr<const CompiledMatrix> current = compiled.value();
  std::shared_ptr<const RefOperand> mirror = in.mirror(m, 0);
  // The serving load beside the probe; it ends with the probe, at a round
  // boundary (the time cap only guards against a stuck probe).
  constexpr double kLoadCapSeconds = 120;
  std::atomic<bool> probe_done{false};
  LoopResult load;
  std::thread load_thread([&] {
    load = run_loop(spec, in, served,
                    {.seconds = kLoadCapSeconds,
                     .slots = slots,
                     .seed = seed,
                     .first_round = kProbeFirstRound,
                     .stop = &probe_done});
  });
  for (std::size_t u = 0; u < spec.probe_updates; ++u) {
    Delta d = make_delta(in, m, *mirror, jigsaw::mix_seed(seed, 0x9b0be, u));
    ++out.updates.attempted;
    Span span("bench.update");
    auto updated = served.engine->update(current, d.delta);
    out.update_ms.push_back(static_cast<double>(span.end()) / 1e6);
    if (!updated.ok()) {
      ++out.updates.failed;
      continue;
    }
    current = updated.value();
    mirror = d.after;
  }
  probe_done.store(true);
  load_thread.join();
  out.requests = load.requests;
  out.check_failures = load.check_failures;
  // The last generation must compute the mirrored operand's product.
  ++out.requests.attempted;
  const std::size_t ni = 0;
  auto result = served.engine->submit(current, in.rhs[m][ni][0]).get();
  if (!result.ok()) {
    ++out.requests.failed;
  } else if (check_full(*mirror, in.rhs_ref[m][ni][0], result.value()) != 0) {
    ++out.check_failures;
  }
  return out;
}

}  // namespace servebench
