// Serving benchmark of the Jigsaw engine: one closed-loop workload per
// process.
//
//   servebench --workload serve_sptc --seed 1 --seconds 12 --trace 0
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) turn obs tracing and metrics on, print the per-layer
// metrics, and write a Chrome trace and a per-layer span table under
// --out. Human-readable lines come first; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// See servebench/README.md for the workloads and the metric map.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "core/tile_search_cache.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve.hpp"
#include "util.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

constexpr int kSetups = 5;               // setup_s is the median of these
constexpr double kWarmupSeconds = 1.0;   // closed-loop warm-up before timing
constexpr std::size_t kWarmCompiles = 4;   // cache-hit compiles per artifact

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  std::string out = ".bench_build/servebench-out";
  bool info = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: servebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       servebench --info\n"
               "workloads:");
  for (const auto& w : all_workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--info") {
      a.info = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--out") {
        a.out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.info || find_workload(a.workload) != nullptr;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Tally {
  OpCount compile, request, update;
  std::uint64_t check_failures = 0;
  bool correct = true;

  void add(OpCount& to, const OpCount& from) {
    to.attempted += from.attempted;
    to.failed += from.failed;
  }
  void add_loop(const LoopResult& r) {
    add(request, r.requests);
    add(update, r.updates);
    check_failures += r.check_failures;
  }
  void add_probe(const ProbeResult& p) {
    add(compile, p.compiles);
    add(request, p.requests);
    add(update, p.updates);
    check_failures += p.check_failures;
  }
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("ops request attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(t.request.attempted),
              static_cast<unsigned long long>(t.request.failed));
  std::printf("ops update attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(t.update.attempted),
              static_cast<unsigned long long>(t.update.failed));
  std::printf("ops compile attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(t.compile.attempted),
              static_cast<unsigned long long>(t.compile.failed));
  std::printf("checked entries outside the bound: %llu\n",
              static_cast<unsigned long long>(t.check_failures));
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  const std::uint64_t attempted =
      t.request.attempted + t.update.attempted + t.compile.attempted;
  const std::uint64_t failed =
      t.request.failed + t.update.failed + t.compile.failed;
  std::string json = "{\"correct\": ";
  json += (t.correct && t.check_failures == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Median setup plus warm-up: full checks of every class, then the closed
/// loop for a second.
Served prepare(const WorkloadSpec& spec, Inputs& in, const Args& args,
               int workers, int setups, Tally& t, std::vector<double>* setup_s) {
  Served served;
  for (int s = 0; s < setups; ++s) {
    served = Served{};  // the previous engine is gone before timing starts
    jigsaw::core::TileSearchCache::instance().clear();
    const auto t0 = Clock::now();
    served = set_up(spec, in, workers, t.compile);
    if (setup_s != nullptr) setup_s->push_back(seconds_between(t0, Clock::now()));
  }
  if (check_every_class(spec, in, served, t.request) != 0) t.correct = false;
  t.add_loop(run_loop(spec, in, served,
                      {.seconds = kWarmupSeconds,
                       .slots = workers,
                       .seed = args.seed,
                       .first_round = 0}));
  return served;
}

double artifact_mb(const Served& served) {
  double bytes = 0;
  for (const auto& h : served.handles) {
    if (h != nullptr) {
      bytes += static_cast<double>(Engine::latest(h)->footprint_bytes);
    }
  }
  return bytes / 1e6;
}

void print_tail(const std::vector<double>& latency_ms) {
  // Highest percentile with at least ten samples beyond it (reported,
  // not gated).
  const auto n = static_cast<double>(latency_ms.size());
  for (double p : {0.999, 0.99, 0.95, 0.9}) {
    if (n * (1.0 - p) >= 10.0) {
      std::printf("tail latency p%g %s ms (%zu samples, %.0f beyond)\n",
                  p * 100, num(quantile(latency_ms, p)).c_str(),
                  latency_ms.size(), n * (1.0 - p));
      return;
    }
  }
}

/// `rss_base_mb` is the peak resident set once the inputs and the checker's
/// data exist; peak_rss_mb reports the program's growth over it.
int run_untraced(const WorkloadSpec& spec, Inputs& in, const Args& args,
                 int workers, double rss_base_mb, Tally& t) {
  std::vector<double> setup_s;
  Served served = prepare(spec, in, args, workers, kSetups, t, &setup_s);
  std::printf("set-up s:");
  for (double x : setup_s) std::printf(" %s", num(x).c_str());
  std::printf("\n");
  const SimCosts costs = simulate_round(spec, served);
  const auto steal0 = cpu_steal_ticks();
  const LoopResult r = run_loop(spec, in, served,
                                {.seconds = args.seconds,
                                 .slots = workers,
                                 .seed = args.seed,
                                 .first_round = kMeasuredFirstRound});
  const auto steal1 = cpu_steal_ticks();
  // Before the serve workloads' update probe, whose extra artifact is not
  // part of the served set.
  const double rss_mb = peak_rss_mb() - rss_base_mb;
  t.add_loop(r);
  if (steal1.second > steal0.second) {
    // Context for the run-to-run spread on a shared host; not a metric.
    std::printf("host steal during the measured loop: %.1f%% of CPU time\n",
                100.0 * (steal1.first - steal0.first) /
                    (steal1.second - steal0.second));
  }
  std::vector<double> update_ms = r.update_ms;
  if (spec.churn()) {
    // The final generation of every lineage computes its mirror exactly.
    if (check_every_class(spec, in, served, t.request) != 0) t.correct = false;
  } else {
    const ProbeResult p = run_update_probe(spec, in, served, args.seed, workers);
    t.add_probe(p);
    update_ms = p.update_ms;
  }
  std::vector<double> sim_us;
  for (const auto& rep : costs.reports) sim_us.push_back(rep.duration_us);
  std::printf("update ms over %zu updates: min %s p50 %s p90 %s max %s\n",
              update_ms.size(), num(quantile(update_ms, 0)).c_str(),
              num(quantile(update_ms, 0.5)).c_str(),
              num(quantile(update_ms, 0.9)).c_str(),
              num(quantile(update_ms, 1)).c_str());

  const double completed = static_cast<double>(r.latency_ms.size());
  std::printf("measured %.3f s wall, %zu requests, %zu updates, rollbacks %llu\n",
              r.wall_s, r.latency_ms.size(), r.update_ms.size(),
              static_cast<unsigned long long>(r.rollbacks));
  print_tail(r.latency_ms);
  std::printf("requests per slice:");
  for (double x : r.slice_requests) std::printf(" %.1f", x);
  std::printf("; whole window %s req/s\n", num(r.window_rps()).c_str());
  std::printf("latency mean %s ms\n", num(mean(r.latency_ms)).c_str());
  std::vector<Metric> m = {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"throughput_rps", r.throughput_rps(), "req/s"},
      {"latency_p50_ms", quantile(r.latency_ms, 0.5), "ms"},
      {"latency_p90_ms", quantile(r.latency_ms, 0.9), "ms"},
      {"cpu_ms_per_req", r.cpu_s * 1e3 / completed, "CPU-ms"},
      {"update_p50_ms", quantile(update_ms, 0.5), "ms"},
      {"update_p90_ms", quantile(update_ms, 0.9), "ms"},
      {"sim_kernel_us", mean(sim_us), "us_sim"},
      {"artifact_mb", artifact_mb(served), "MB"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  print_result(t, m);
  return 0;
}

int run_traced(const WorkloadSpec& spec, Inputs& in, const Args& args,
               int workers, Tally& t) {
  namespace obs = jigsaw::obs;
  // Untraced reference throughput for the tracing overhead.
  double untraced_rps = 0, untraced_latency_ms = 0;
  {
    Served served = prepare(spec, in, args, workers, 1, t, nullptr);
    const LoopResult r = run_loop(spec, in, served,
                                  {.seconds = args.seconds,
                                   .slots = workers,
                                   .seed = args.seed,
                                   .first_round = kMeasuredFirstRound});
    t.add_loop(r);
    untraced_rps = r.throughput_rps();
    untraced_latency_ms = mean(r.latency_ms);
  }

  obs::set_enabled(true);
  obs::reset_trace();
  obs::reset_metrics();
  jigsaw::core::TileSearchCache::instance().clear();
  const auto c0 = counter_values();
  const std::uint64_t setup0 = obs::trace_now_ns();
  std::vector<double> compile_ms;
  Served served = set_up(spec, in, workers, t.compile, &compile_ms);
  const auto c1 = counter_values();
  std::vector<double> warm_us;
  for (std::size_t m = 0; m < spec.matrices.size(); ++m) {
    for (std::size_t i = 0; i < kWarmCompiles; ++i) {
      ++t.compile.attempted;
      const auto t0 = Clock::now();
      auto h = served.engine->compile(in.lhs[m], compile_options(spec, m));
      warm_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      if (!h.ok()) ++t.compile.failed;
    }
  }
  const std::uint64_t setup1 = obs::trace_now_ns();
  if (check_every_class(spec, in, served, t.request) != 0) t.correct = false;
  t.add_loop(run_loop(spec, in, served,
                      {.seconds = kWarmupSeconds,
                       .slots = workers,
                       .seed = args.seed,
                       .first_round = 0}));
  const SimCosts costs = simulate_round(spec, served);

  const auto c2 = counter_values();
  const std::uint64_t loop0 = obs::trace_now_ns();
  const LoopResult r = run_loop(spec, in, served,
                                {.seconds = args.seconds,
                                 .slots = workers,
                                 .seed = args.seed,
                                 .first_round = kMeasuredFirstRound});
  const std::uint64_t loop1 = obs::trace_now_ns();
  const auto c3 = counter_values();
  const jigsaw::CacheStats cache = served.engine->cache_stats();
  t.add_loop(r);
  if (!spec.churn()) {
    t.add_probe(run_update_probe(spec, in, served, args.seed, workers));
  }
  const auto c4 = counter_values();
  const auto events = obs::trace_snapshot();
  const auto setup_spans = aggregate_spans(events, setup0, setup1);
  const auto loop_spans = aggregate_spans(events, loop0, loop1);
  const auto all_spans = aggregate_spans(events, 0, UINT64_MAX);

  // Trace files.
  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + spec.name;
  {
    std::ofstream trace_file(stem + ".trace.json");
    obs::write_chrome_trace(trace_file);
  }
  {
    std::ofstream table(stem + ".layers.txt");
    table << "# " << spec.name << " seed " << args.seed
          << ": all spans of the traced run\n";
    write_layer_table(table, all_spans);
    table << "\n# measured window only\n";
    write_layer_table(table, loop_spans);
  }
  std::printf("per-layer table (measured window):\n");
  write_layer_table(std::cout, loop_spans);
  std::cout.flush();
  std::printf("wrote %s.trace.json and %s.layers.txt (%zu spans, %llu dropped)\n",
              stem.c_str(), stem.c_str(), events.size(),
              static_cast<unsigned long long>(obs::trace_dropped_count()));

  std::size_t panels = 0, panels_ok = 0, fallback_columns = 0;
  bool raw = false, checked_clean = false, degraded = false;
  for (std::size_t i = 0; i < served.handles.size(); ++i) {
    const auto& h = served.handles[i];
    if (h == nullptr) continue;
    const auto& d = h->degradation;
    panels += d.panels_total;
    panels_ok += d.panels_total - d.panels_degraded;
    fallback_columns += d.fallback_dense_columns + d.fallback_cuda_columns;
    const ExecutionPolicy policy = spec.matrices[i].policy;
    raw = raw || policy == ExecutionPolicy::kRaw;
    degraded = degraded || d.panels_degraded > 0;
    checked_clean = checked_clean ||
                    (policy == ExecutionPolicy::kAuto && d.panels_degraded == 0);
  }
  // Matrix 0 takes every update, the probe's and weights_churn's; they
  // splice panels when it reorders cleanly and recompile it whole when not.
  const bool incremental = served.handles[0] != nullptr &&
                           served.handles[0]->degradation.panels_degraded == 0;

  // A program span or counter this workload exercises must be there: a
  // missing name (say, a renamed one) fails the run instead of reading 0.
  // One the workload never exercises, such as kernel.cost_walk on
  // serve_sptc, reads 0.
  std::vector<std::string> missing;
  auto span = [&](const std::map<std::string, SpanStats>& s, const char* name,
                  bool exercised) {
    const auto it = s.find(name);
    if (it != s.end()) return it->second;
    if (exercised) missing.emplace_back(name);
    return SpanStats{};
  };
  auto counter = [&](const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const char* name, bool exercised) {
    if (exercised && after.find(name) == after.end()) {
      missing.emplace_back(name);
    }
    return counter_delta(before, after, name);
  };
  auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  const double requests = static_cast<double>(r.latency_ms.size());
  const SpanStats exec = span(loop_spans, "engine.execute", true);
  const SpanStats request = span(loop_spans, "bench.request", true);
  const double execute_ms = per(exec.total_ms, static_cast<double>(exec.count));
  const double request_ms =
      per(request.total_ms, static_cast<double>(request.count));
  const double updates =
      counter(c0, c4, "jigsaw.engine.update.attempts", true);
  const double matrices = static_cast<double>(spec.matrices.size());
  std::vector<double> sim_us, dram_mb, sptc_macs, conflicts;
  for (const auto& rep : costs.reports) {
    sim_us.push_back(rep.duration_us);
    dram_mb.push_back(
        (rep.counters.dram_read_bytes + rep.counters.dram_write_bytes) / 1e6);
    sptc_macs.push_back(rep.counters.sptc_macs);
    conflicts.push_back(rep.counters.smem_bank_conflicts);
  }
  const double traced_rps = r.throughput_rps();
  std::printf(
      "request latency (traced) mean %s ms = queue wait %s ms + execute %s "
      "ms; untraced mean %s ms\n",
      num(request_ms).c_str(), num(request_ms - execute_ms).c_str(),
      num(execute_ms).c_str(), num(untraced_latency_ms).c_str());

  std::vector<Metric> m = {
      {"engine.compile_cold_ms", mean(compile_ms), "ms"},
      {"engine.compile_warm_us", mean(warm_us), "us"},
      {"engine.submit_call_us", mean(r.submit_us), "us"},
      {"engine.execute_ms", execute_ms, "ms"},
      {"engine.queue_wait_ms", request_ms - execute_ms, "ms"},
      {"engine.latest_us", mean(r.latest_us), "us"},
      {"engine.update.panels_replanned",
       per(counter(c0, c4, "jigsaw.engine.update.panels_replanned",
                   incremental),
           updates),
       "count"},
      {"engine.update.incremental_ratio",
       per(counter(c0, c4, "jigsaw.engine.update.incremental", incremental),
           updates),
       "ratio"},
      {"engine.alloc_per_req",
       per(counter(c2, c3, "jigsaw.engine.submit.allocations", checked_clean),
           requests),
       "count"},
      {"plan_cache.hit_ratio",
       per(static_cast<double>(cache.hits),
           static_cast<double>(cache.hits + cache.misses)),
       "ratio"},
      {"plan_cache.resident_mb", static_cast<double>(cache.bytes) / 1e6, "MB"},
      {"plan_cache.evictions", static_cast<double>(cache.evictions), "count"},
      {"pool.busy_ratio",
       exec.total_ms / 1e3 / (static_cast<double>(workers) * r.wall_s),
       "ratio"},
      {"pool.cpu_per_busy", per(r.cpu_s, exec.total_ms / 1e3), "ratio"},
      {"reorder.plan_ms",
       span(setup_spans, "reorder.plan", true).total_ms / matrices, "ms"},
      {"reorder.panel_replan_ms",
       per(span(all_spans, "reorder.panel_replan", incremental).total_ms,
           updates),
       "ms"},
      {"reorder.panels_ok_ratio",
       per(static_cast<double>(panels_ok), static_cast<double>(panels)),
       "ratio"},
      {"format.build_ms",
       span(setup_spans, "format.build", true).total_ms / matrices, "ms"},
      {"format.rebuild_panels_ms",
       per(span(all_spans, "format.rebuild_panels", incremental).total_ms,
           updates),
       "ms"},
      {"format.bytes", counter(c0, c1, "format.bytes_total", true), "bytes"},
      {"kernel.compute_ms",
       per(span(loop_spans, "kernel.compute", true).total_ms, requests), "ms"},
      {"kernel.cost_walk_ms",
       per(span(loop_spans, "kernel.cost_walk", raw).total_ms, requests),
       "ms"},
      {"kernel.b_staging_mb", mean(r.b_staging_mb), "MB"},
      {"hybrid.run_ms",
       per(span(loop_spans, "hybrid.run", degraded).total_ms, requests), "ms"},
      {"checked.fallback_columns", static_cast<double>(fallback_columns),
       "count"},
      {"gpusim.sim_us", mean(sim_us), "us_sim"},
      {"gpusim.dram_mb", mean(dram_mb), "MB"},
      {"gpusim.sptc_macs", mean(sptc_macs), "count"},
      {"gpusim.bank_conflicts", mean(conflicts), "count"},
      {"gpusim.cost_call_ms", mean(costs.call_ms), "ms"},
      {"obs.trace_overhead_ratio", per(untraced_rps, traced_rps), "ratio"},
  };
  if (!missing.empty()) {
    for (const std::string& name : missing) {
      std::fprintf(stderr, "servebench: the program emitted no %s\n",
                   name.c_str());
    }
    return 1;
  }
  print_result(t, m);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (args.info) {
    std::printf("{\"build_type\": \"%s\", \"ndebug\": %s, \"nproc\": %d}\n",
                SERVEBENCH_BUILD_TYPE, kNdebug ? "true" : "false", nproc);
    return 0;
  }
  std::string report;
  const bool self_ok = checker_self_test(report);
  std::printf("%s\n", report.c_str());

  const WorkloadSpec& spec = *find_workload(args.workload);
  // Closed loop: nproc requests outstanding on an nproc-worker engine.
  const int workers = nproc;
  std::printf(
      "servebench workload=%s seed=%llu seconds=%s trace=%d nproc=%d "
      "workers=%d slots=%d build=%s ndebug=%d\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      num(args.seconds).c_str(), args.trace ? 1 : 0, nproc, workers, workers,
      SERVEBENCH_BUILD_TYPE, kNdebug ? 1 : 0);
  for (const MatrixSpec& m : spec.matrices) {
    std::printf("  serves %s\n", m.label().c_str());
  }
  auto in = make_inputs(spec, args.seed);
  Tally tally;
  tally.correct = self_ok;
  return args.trace
             ? run_traced(spec, *in, args, workers, tally)
             : run_untraced(spec, *in, args, workers, peak_rss_mb(), tally);
}
