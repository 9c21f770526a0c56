// Small helpers shared by the serving benchmark: clocks, CPU time, peak
// RSS, sample statistics and number formatting.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user + system CPU seconds (all threads).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of the process so far, in MB (10^6 bytes).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

/// Cumulative (steal, total) CPU ticks of the machine from /proc/stat;
/// zeros where it cannot be read. Steal is time the hypervisor ran
/// something else on this machine's virtual CPUs.
inline std::pair<double, double> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return {0, 0};
  double total = 0;
  for (double& x : v) {
    if (!(stat >> x)) return {0, 0};
    total += x;
  }
  return {v[7], total};
}

/// Linear-interpolated quantile (q in [0, 1]) of raw samples; 0 if empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Shortest decimal text that reads back as exactly `v`.
inline std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace servebench
