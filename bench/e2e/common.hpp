// Shared plumbing of the end-to-end benchmark: run options, the report a
// workload hands back, the metric catalogue (mirrors BENCHMARK.json),
// order statistics, process measurements, and the correctness oracle —
// golden outputs plus direct deploy+run references.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "vm/executor.hpp"
#include "vm/node.hpp"
#include "xaas/source_container.hpp"

namespace xaas::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // timed phases of one run, in total
  bool trace = false;
  /// 3-second phases and fewer set-ups: a quick end-to-end check.
  bool smoke = false;
  /// Enumerate every input any seed can draw and rewrite golden.json.
  bool write_golden = false;
  std::string golden_path;
  /// Result file of the untraced run with the same workload, seed and
  /// length: the traced run reports its overhead against it and checks
  /// the exact counts match.
  std::string baseline_path;
  /// Results files this run's entry is merged into.
  std::vector<std::string> result_paths;
  /// Directory for artifact stores and Chrome traces (removed / written
  /// at exit).
  std::string work_dir = "build-e2e";
  /// Set-ups per run; setup_s is their median.
  int setups() const { return smoke ? 1 : 5; }
};

/// What one workload run hands back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errored or produced a wrong output
  std::vector<std::string> errors;
  /// End-to-end metrics by name (see end_to_end_metrics()).
  std::map<std::string, double> e2e;
  /// Per-layer metrics by name (see per_layer_metrics()); absent ones
  /// report 0.
  std::map<std::string, double> layer;
  /// Deterministic counts: identical for every run with one workload,
  /// seed and length, traced or not.
  common::Json exact = common::Json::object();
  /// Validity warnings (an open-loop phase that fell behind, ...).
  std::vector<std::string> warnings;

  /// Count a failed operation, keeping the first few messages.
  void fail(const std::string& message);
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

/// End-to-end metrics, reported by every workload with tracing off.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every workload with tracing on.
const std::vector<MetricSpec>& per_layer_metrics();

// ---- Order statistics ----------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The tail statistics of the serving workloads: split a phase of
/// `duration` seconds into consecutive windows of `window` seconds by the
/// samples' send offsets `at`, take each full window's q-quantile, report
/// the median over windows. Robust to a stall that hits a minority of
/// windows.
double windowed_quantile(const std::vector<double>& samples,
                         const std::vector<double>& at, double window,
                         double duration, double q);
double geomean(const std::vector<double>& values);

// ---- Process measurements ------------------------------------------------

/// User + system CPU seconds of this process so far.
double process_cpu_seconds();
/// Return freed heap to the system and record this process's resident
/// set size. Workloads call it at fixed points (after each set-up, after
/// each timed phase or release): the kernel's own high-water mark
/// (ru_maxrss) is updated lazily, so it catches a short peak in some runs
/// and misses it in others.
void sample_rss();
/// The largest resident set size sample_rss() recorded, MB.
double peak_rss_mb();

// ---- Correctness oracle --------------------------------------------------

/// One direct deploy+run: the reference a served or fleet-deployed
/// result must reproduce bit for bit (its numerics digest covers returns,
/// cost model and buffers).
struct DirectResult {
  bool ok = false;
  std::string error;
  std::string digest;    // service::numerics_digest
  vm::RunResult run;
  vm::Workload workload;  // buffers after the run
};

class Golden;

/// Run `workload` on `node` through a deployed app, and check its
/// returns and buffers against golden.json under `golden_key`.
DirectResult direct_run(const DeployedApp& deployed, const vm::NodeSpec& node,
                        vm::Workload workload, int threads, Golden& golden,
                        const std::string& golden_key);

/// golden.json: key -> record, for every (app version, configuration,
/// target ISA, opt level, workload) a seed can draw.
class Golden {
public:
  /// Load `path`; in write mode start empty and collect.
  bool load(const std::string& path, bool write_mode, std::string* error);

  /// Check (or, in write mode, record) one direct result. Returns false
  /// and fills `error` on a mismatch or a key golden.json lacks.
  bool check(const std::string& key, const common::Json& record,
             std::string* error);

  bool save(std::string* error) const;
  std::size_t size() const { return entries_.size(); }

private:
  std::string path_;
  bool write_mode_ = false;
  std::map<std::string, common::Json> entries_;
};

/// "app@version|configuration|isa|O<n>|workload" — the golden key.
std::string golden_key(const std::string& app, const std::string& version,
                       const DeployedApp& deployed,
                       const std::string& workload_name);

/// The model a simulated fleet node was cloned from ("ault23-3" ->
/// "ault23").
std::string node_model(const std::string& node_name);

/// Removes a directory tree when it goes out of scope (artifact stores
/// the serving plane writes during a run).
class ScopedDir {
public:
  explicit ScopedDir(std::string path);
  ~ScopedDir();
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

private:
  std::string path_;
};

// ---- Workloads -------------------------------------------------------------
// Each runs its set-ups, its timed phases and its checks, and fills a
// Report. With options.write_golden it instead enumerates every input a
// seed can draw and records the direct outputs into `golden`.

Report run_serve_hot(const Options& options, Golden& golden);
Report run_serve_release(const Options& options, Golden& golden);
Report run_deploy_fleet(const Options& options, Golden& golden);
Report run_run_apps(const Options& options, Golden& golden);

}  // namespace xaas::e2e
