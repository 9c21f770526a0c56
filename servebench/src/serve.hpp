// Workloads and the closed-loop load generator of the serving benchmark.
//
// The served weights are the model: every matrix comes from
// dlmc::make_lhs at the suite's fixed base seed, so each workload serves
// the same artifacts whatever the run. The workload seed drives the
// traffic: RHS contents, the request order within each round, the
// checked entry positions and the weight deltas.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checker.hpp"
#include "engine/engine.hpp"
#include "gpusim/cost_model.hpp"

namespace servebench {

using jigsaw::CompiledMatrix;
using jigsaw::Engine;
using jigsaw::ExecutionPolicy;

struct MatrixSpec {
  std::size_t m = 0, k = 0;
  double sparsity = 0;
  std::size_t v = 0;
  ExecutionPolicy policy = ExecutionPolicy::kAuto;

  std::string label() const;
};

struct WorkloadSpec {
  std::string name;
  std::vector<MatrixSpec> matrices;
  std::vector<std::size_t> n_mix;
  /// Copies of each (matrix, n) class in one round of requests.
  std::size_t class_repeats = 1;
  /// weights_churn: artifacts are compiled updatable and one
  /// Engine::update runs per this many requests, beside the serving.
  std::size_t requests_per_update = 0;
  /// Serve workloads: how many deltas the post-measurement update probe
  /// streams into matrix 0.
  std::size_t probe_updates = 0;

  bool churn() const { return requests_per_update > 0; }
  std::size_t round_size() const {
    return matrices.size() * n_mix.size() * class_repeats;
  }
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

/// Per-kind operation tally.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Generated inputs of one run: operands, their reference mirrors, the
/// RHS pools and the update-delta sources.
struct Inputs {
  std::vector<jigsaw::DenseMatrix<fp16_t>> lhs;
  /// Mirror of each operand per generation (index = generation); only
  /// weights_churn and the update probe grow past generation 0.
  std::vector<std::vector<std::shared_ptr<const RefOperand>>> mirrors;
  /// Nonzero positions of each operand, per 64-row panel: the pool that
  /// row-clustered value deltas draw from.
  std::vector<std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>>
      panel_nonzeros;
  /// RHS pool per n-mix entry per matrix: rhs[matrix][n_index][i].
  std::vector<std::vector<std::vector<jigsaw::DenseMatrix<fp16_t>>>> rhs;
  std::vector<std::vector<std::vector<RefRhs>>> rhs_ref;
  std::mutex mirror_mu;  ///< guards mirrors while a writer publishes

  std::shared_ptr<const RefOperand> mirror(std::size_t m, std::uint64_t gen);
};

std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec,
                                    std::uint64_t seed);

/// A set-up engine with the workload's compiled artifacts.
struct Served {
  std::unique_ptr<Engine> engine;
  std::vector<std::shared_ptr<const CompiledMatrix>> handles;
};

jigsaw::EngineOptions compile_options(const WorkloadSpec& spec,
                                      std::size_t matrix);

/// Engine construction plus a cold compile of every artifact. Failed
/// compiles are tallied in `compiles` and leave a null handle.
Served set_up(const WorkloadSpec& spec, const Inputs& in, int workers,
              OpCount& compiles, std::vector<double>* compile_ms = nullptr);

/// One row-clustered value delta (~1% of the operand's nonzeros, two
/// adjacent 64-row panels) against mirror `base`, plus the mirror after it.
struct Delta {
  jigsaw::SparseDelta delta;
  std::shared_ptr<const RefOperand> after;
};
Delta make_delta(const Inputs& in, std::size_t matrix, const RefOperand& base,
                 std::uint64_t delta_seed);

/// Everything one pass of the closed loop measured.
struct LoopResult {
  OpCount requests, updates;
  std::uint64_t check_failures = 0;  ///< sampled entries outside the bound
  std::uint64_t rollbacks = 0;       ///< latest() went back a generation
  std::vector<double> latency_ms;    ///< submit call to result ready
  std::vector<double> submit_us;     ///< the submit call itself
  std::vector<double> latest_us;     ///< Engine::latest (weights_churn)
  std::vector<double> update_ms;     ///< Engine::update (weights_churn)
  std::vector<double> b_staging_mb;  ///< K x n x 4 per request, computed
  double wall_s = 0;  ///< first submit to last completion
  double cpu_s = 0;   ///< process CPU over wall_s
  /// The timed window [start, start + seconds] and the requests completed
  /// in each tenth of it, a request that straddles slices counted in each
  /// by the share of its latency inside it. The round-boundary drain after
  /// the window does not enter.
  double window_s = 0;
  std::vector<double> slice_requests;

  /// Requests per second over the whole window.
  double window_rps() const;
  /// Median over the slices' rates: a burst of interference from
  /// outside the process moves one slice, not the result.
  double throughput_rps() const;
};

/// First round index of the measured loop and of the probe's load, so
/// their request orders and checked positions differ from the warm-up's.
inline constexpr std::uint64_t kMeasuredFirstRound = 1u << 20;
inline constexpr std::uint64_t kProbeFirstRound = 2u << 20;

struct LoopConfig {
  double seconds = 0;
  int slots = 1;
  std::uint64_t seed = 0;
  std::uint64_t first_round = 0;  ///< keeps the loops' rounds apart
  /// Ends the loop at the next round boundary once set, before `seconds`.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs the closed loop: `slots` client threads each keep one request
/// outstanding until `seconds` have passed and the current round is
/// whole; on weights_churn a writer thread streams one update per
/// `requests_per_update` dispensed requests.
LoopResult run_loop(const WorkloadSpec& spec, Inputs& in, Served& served,
                    const LoopConfig& config);

/// Full-product check of one response per (artifact, n) class.
/// Returns the number of classes whose product failed.
std::size_t check_every_class(const WorkloadSpec& spec, Inputs& in,
                              Served& served, OpCount& requests);

/// Simulated A100 kernel report per (artifact, n) class of one round, and
/// the host wall time of each Engine::cost call.
struct SimCosts {
  std::vector<jigsaw::gpusim::KernelReport> reports;
  std::vector<double> call_ms;
};
SimCosts simulate_round(const WorkloadSpec& spec, const Served& served);

/// Update probe of the serve workloads: compiles matrix 0
/// updatable on the served engine and streams spec.probe_updates deltas
/// through Engine::update one at a time while the workload's closed loop
/// keeps serving beside it (unmeasured, still checked), then full-checks
/// the last generation. Latencies land in `update_ms`; the probe thus
/// times updates under the workload's own load, as weights_churn does.
struct ProbeResult {
  OpCount compiles, updates, requests;
  std::uint64_t check_failures = 0;
  std::vector<double> update_ms;
};
ProbeResult run_update_probe(const WorkloadSpec& spec, Inputs& in,
                             Served& served, std::uint64_t seed, int slots);

}  // namespace servebench
