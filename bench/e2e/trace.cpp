#include "bench/e2e/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>

namespace xaas::e2e::trace {
namespace {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* layer = "";
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  Kind kind = Kind::Busy;
  bool program_reported = false;
  /// Recorded after the fact (record()), possibly overlapping other
  /// requests on one thread: exported as an async pair keyed by request.
  bool async = false;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_origin = Clock::now();

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

// Open Span ids on this thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_origin)
      .count();
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t record(const char* layer, std::string name,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t parent, std::uint64_t request, Kind kind,
                     bool program_reported) {
  if (!enabled()) return 0;
  SpanRecord span;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.request = request;
  span.layer = layer;
  span.name = std::move(name);
  span.start_ns = to_ns(start);
  span.end_ns = std::max(to_ns(end), span.start_ns);
  span.thread = t_thread;
  span.kind = kind;
  span.program_reported = program_reported;
  span.async = true;
  const std::uint64_t id = span.id;
  std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(span));
  return id;
}

Span::Span(const char* layer, const char* name, std::uint64_t request)
    : layer_(layer), name_(name), request_(request) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  t_open.pop_back();
  SpanRecord span;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.layer = layer_;
  span.name = name_;
  span.start_ns = to_ns(start_);
  span.end_ns = to_ns(end);
  span.thread = t_thread;
  std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(span));
}

std::vector<LayerRow> layer_table() {
  std::lock_guard lock(g_mutex);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& span : g_spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerRow> rows;
  for (const SpanRecord& span : g_spans) {
    LayerRow& row = rows[span.layer];
    row.layer = span.layer;
    ++row.count;
    const double ms = static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    if (span.kind == Kind::Wait) {
      row.wait_ms += ms;
      continue;
    }
    row.busy_ms += ms;
    const auto it = child_ns.find(span.id);
    const double covered =
        it == child_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
    row.self_ms += std::max(0.0, ms - covered);
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) out.push_back(std::move(row));
  return out;
}

std::size_t span_count() {
  std::lock_guard lock(g_mutex);
  return g_spans.size();
}

bool write_chrome(const std::string& path, std::string* error) {
  std::lock_guard lock(g_mutex);
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  // RAII spans nest per thread and become complete ("X") events. Spans
  // recorded after the fact belong to requests that overlap each other,
  // so they become async begin/end pairs keyed by request id, one stack
  // per request.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char number[64];
  std::string line;
  for (const SpanRecord& span : g_spans) {
    const auto emit = [&](const char* phase, std::int64_t ts_ns,
                          bool with_dur) {
      line.clear();
      line += first ? "" : ",\n";
      first = false;
      line += "{\"name\":\"";
      append_escaped(line, span.name);
      line += "\",\"cat\":\"";
      append_escaped(line, span.layer);
      line += "\",\"ph\":\"";
      line += phase;
      std::snprintf(number, sizeof(number), "\",\"ts\":%.3f",
                    static_cast<double>(ts_ns) * 1e-3);
      line += number;
      if (with_dur) {
        std::snprintf(number, sizeof(number), ",\"dur\":%.3f",
                      static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
        line += number;
      }
      if (span.async) {
        std::snprintf(number, sizeof(number), ",\"id\":\"req%llu\"",
                      static_cast<unsigned long long>(span.request));
        line += number;
      }
      std::snprintf(number, sizeof(number), ",\"pid\":1,\"tid\":%u",
                    span.thread);
      line += number;
      std::snprintf(number, sizeof(number),
                    ",\"args\":{\"span\":%llu,\"parent\":%llu,"
                    "\"request\":%llu,",
                    static_cast<unsigned long long>(span.id),
                    static_cast<unsigned long long>(span.parent),
                    static_cast<unsigned long long>(span.request));
      line += number;
      line += "\"kind\":\"";
      line += span.kind == Kind::Wait ? "wait" : "busy";
      line += "\",\"source\":\"";
      line += span.program_reported ? "program-reported" : "benchmark";
      line += "\"}}";
      out << line;
    };
    if (span.async) {
      emit("b", span.start_ns, false);
      emit("e", span.end_ns, false);
    } else {
      emit("X", span.start_ns, true);
    }
  }
  out << "\n]}\n";
  if (!out) {
    *error = "failed writing " + path;
    return false;
  }
  return true;
}

}  // namespace xaas::e2e::trace
