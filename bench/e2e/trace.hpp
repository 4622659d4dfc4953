// Span recorder for the traced run. Spans come from the benchmark's own
// code around every public call it makes into a layer (submit -> future
// ready, deploy_batch, build_ir_container, run_on, plan_*, ...), plus
// stage spans rebuilt from the timings a served request reports about
// itself (RunResult queue/deploy/run, ClusterRunResult totals), which
// are labelled "program-reported". Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON.
//
// With tracing off a Span costs one relaxed load; end-to-end numbers
// come only from untraced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/common.hpp"

namespace xaas::e2e::trace {

enum class Kind { Busy, Wait };

void enable(bool on);
bool enabled();

/// Record a finished span and return its id (0 when tracing is off).
std::uint64_t record(const char* layer, std::string name,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t parent, std::uint64_t request, Kind kind,
                     bool program_reported);

/// RAII span around one call from the benchmark into a layer. Nested
/// Spans on one thread become parent and child.
class Span {
public:
  Span(const char* layer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* layer_;
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
};

/// One row of the per-layer table: spans, time busy in the layer, time
/// work waited in it, and busy time not covered by child spans.
struct LayerRow {
  std::string layer;
  std::uint64_t count = 0;
  double busy_ms = 0.0;
  double wait_ms = 0.0;
  double self_ms = 0.0;
};

std::vector<LayerRow> layer_table();
std::size_t span_count();

/// Write every span as Chrome trace-event JSON (opens in Perfetto).
bool write_chrome(const std::string& path, std::string* error);

}  // namespace xaas::e2e::trace
