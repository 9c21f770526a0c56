#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"

namespace servebench {

std::map<std::string, SpanStats> aggregate_spans(
    const std::vector<jigsaw::obs::TraceEvent>& events, std::uint64_t from_ns,
    std::uint64_t to_ns) {
  // Per thread, spans nest like a call stack: sort by start (longest
  // first on ties) and charge each span's duration to its innermost
  // enclosing open span as child time.
  std::map<std::uint32_t, std::vector<const jigsaw::obs::TraceEvent*>> by_tid;
  for (const auto& e : events) {
    if (e.start_ns >= from_ns && e.start_ns < to_ns) {
      by_tid[e.tid].push_back(&e);
    }
  }
  std::map<std::string, SpanStats> out;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->duration_ns > b->duration_ns;
    });
    std::vector<double> child_ns(list.size(), 0.0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto* e = list[i];
      while (!open.empty()) {
        const auto* top = list[open.back()];
        if (top->start_ns + top->duration_ns > e->start_ns) break;
        open.pop_back();
      }
      if (!open.empty()) {
        const auto* parent = list[open.back()];
        const std::uint64_t parent_end = parent->start_ns + parent->duration_ns;
        const std::uint64_t end =
            std::min(parent_end, e->start_ns + e->duration_ns);
        child_ns[open.back()] += static_cast<double>(end - e->start_ns);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      SpanStats& s = out[list[i]->name];
      const auto dur = static_cast<double>(list[i]->duration_ns);
      ++s.count;
      s.total_ms += dur / 1e6;
      s.self_ms += std::max(0.0, dur - child_ns[i]) / 1e6;
    }
  }
  return out;
}

void write_layer_table(std::ostream& os,
                       const std::map<std::string, SpanStats>& spans) {
  std::vector<std::pair<std::string, SpanStats>> rows(spans.begin(),
                                                      spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ms > b.second.total_ms;
  });
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %14s %14s %12s\n", "span",
                "count", "total_ms", "self_ms", "mean_ms");
  os << line;
  for (const auto& [name, s] : rows) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %14.3f %14.3f %12.4f\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ms, s.self_ms,
                  s.count ? s.total_ms / static_cast<double>(s.count) : 0.0);
    os << line;
  }
}

std::map<std::string, double> counter_values() {
  std::map<std::string, double> out;
  for (const auto& c : jigsaw::obs::metrics_snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

}  // namespace servebench
