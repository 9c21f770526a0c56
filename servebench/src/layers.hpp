// Per-layer breakdown of a traced run: span aggregation (count, total and
// self time per span name) over the obs trace, and counter reads from the
// obs metrics snapshot.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace servebench {

struct SpanStats {
  std::uint64_t count = 0;
  double total_ms = 0;
  /// Span time minus the time its same-thread child spans cover.
  double self_ms = 0;
};

/// Aggregates the spans that start inside [from_ns, to_ns), by name.
std::map<std::string, SpanStats> aggregate_spans(
    const std::vector<jigsaw::obs::TraceEvent>& events, std::uint64_t from_ns,
    std::uint64_t to_ns);

/// Writes the table: one row per span name, by total time.
void write_layer_table(std::ostream& os,
                       const std::map<std::string, SpanStats>& spans);

/// Counter values of the obs registry by name.
std::map<std::string, double> counter_values();

/// Counter `name` in `after` minus the same in `before`, an absent one
/// reading 0: the counter's growth across a phase.
double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name);

}  // namespace servebench
