#include "bench/e2e/common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/sha256.hpp"
#include "service/gateway.hpp"

namespace xaas::e2e {

void Report::fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"p50_ms", "ms", "lower"},
      {"p90_ms", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // service/cluster + fair_queue
      {"cluster.wait_ms.p50", "ms", "lower"},
      {"cluster.wait_ms.p99", "ms", "lower"},
      {"cluster.stolen", "count", "lower"},
      {"cluster.steal_skipped", "count", "lower"},
      // service/gateway + reliability
      {"gateway.queue_ms.p50", "ms", "lower"},
      {"gateway.queue_ms.p99", "ms", "lower"},
      {"gateway.run_ms.p50", "ms", "lower"},
      {"gateway.other_ms.p50", "ms", "lower"},
      {"gateway.retries", "count", "lower"},
      {"gateway.shed", "count", "lower"},
      // common/sha256
      {"digest_us", "us", "lower"},
      // service/spec_cache + deploy_scheduler
      {"gateway.deploy_hit_ms.p50", "ms", "lower"},
      {"gateway.deploy_miss_ir_ms.p50", "ms", "lower"},
      {"spec_cache.hit_ratio", "ratio", "higher"},
      {"spec_cache.misses", "count", "lower"},
      {"spec_cache.disk_hits", "count", "higher"},
      {"deploy_scheduler.lowerings", "count", "lower"},
      // service/build_farm + minicc/compile_cache
      {"gateway.deploy_miss_src_ms.p50", "ms", "lower"},
      {"tu_cache.compiles", "count", "lower"},
      {"tu_cache.hit_ratio", "ratio", "higher"},
      {"build_farm.whole_builds", "count", "lower"},
      {"build_farm.tu_compiles", "count", "lower"},
      {"build_farm.tu_hits", "count", "higher"},
      {"source.build_direct_ms", "ms", "lower"},
      {"source.build_cached_ms", "ms", "lower"},
      // service/artifact_store + distribution
      {"artifact_store.writes", "count", "lower"},
      {"artifact_store.disk_hits", "count", "higher"},
      {"artifact_store.verify_failures", "count", "lower"},
      {"distribution.bytes_total", "B", "lower"},
      {"distribution.lazy_fetches", "count", "lower"},
      {"distribution.prewarm_fetches", "count", "higher"},
      {"distribution.verify_rejects", "count", "lower"},
      // the highest percentile with ten samples beyond it; its spread
      // from run to run follows the host's load (see README.md)
      {"tail.p99_ms", "ms", "lower"},
      // serving outcomes the layers above explain
      {"serve.cold_ir_ms", "ms", "lower"},
      {"serve.cold_src_ms", "ms", "lower"},
      {"serve.cold_requests", "count", "lower"},
      // xaas/ir_pipeline + minicc front end
      {"ir_pipeline.unique_irs", "count", "lower"},
      {"ir_pipeline.total_tus", "count", "lower"},
      {"ir_pipeline.reduction_pct", "%", "higher"},
      {"source_image.build_ms", "ms", "lower"},
      // xaas/ir_deploy + minicc/lower, vectorizer
      {"ir_deploy.plan_us", "us", "lower"},
      {"ir_deploy.lower_ms", "ms", "lower"},
      // xaas/source_container + buildsys
      {"source.plan_us", "us", "lower"},
      // fleet outcomes the layers above explain
      {"fleet.ir_build_s", "s", "lower"},
      {"fleet.deploy_ir_s", "s", "lower"},
      {"fleet.deploy_src_s", "s", "lower"},
      // vm
      {"vm.decode_ms", "ms", "lower"},
      {"vm.minst_per_s.minimd", "Minstr/s", "higher"},
      {"vm.minst_per_s.minillama", "Minstr/s", "higher"},
      {"vm.minst_per_s.minilulesh", "Minstr/s", "higher"},
      {"vm.run_ms.p50.minimd", "ms", "lower"},
      {"vm.run_ms.p50.minillama", "ms", "lower"},
      {"vm.run_ms.p50.minilulesh", "ms", "lower"},
      {"vm.instructions.minimd", "count", "lower"},
      {"vm.instructions.minillama", "count", "lower"},
      {"vm.instructions.minilulesh", "count", "lower"},
      {"apps.vm_minst_per_s", "Minstr/s", "higher"},
      // generated-code quality (cost model)
      {"modeled_speedup.minimd", "x", "higher"},
      {"modeled_speedup.minillama", "x", "higher"},
      {"modeled_speedup.minilulesh", "x", "higher"},
      {"apps.modeled_speedup", "x", "higher"},
      // process and load generator
      {"cpu_busy_cores", "cores", "lower"},
      {"loadgen.late_p99_ms", "ms", "lower"},
      {"trace.spans", "count", "lower"},
  };
  return kMetrics;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double windowed_quantile(const std::vector<double>& samples,
                         const std::vector<double>& at, double window,
                         double duration, double q) {
  const auto full = static_cast<long>(duration / window + 1e-9);
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto index = static_cast<long>(at[i] / window);
    if (index < full) windows[index].push_back(samples[i]);
  }
  std::vector<double> per_window;
  for (auto& [index, values] : windows) {
    per_window.push_back(quantile(std::move(values), q));
  }
  return median(std::move(per_window));
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

double g_peak_rss_mb = 0.0;

}  // namespace

void sample_rss() {
  // Return freed heap pages first: otherwise the sample includes what
  // the allocator still holds from a burst, such as a request backlog
  // that grew while the host was busy.
  malloc_trim(0);
  // /proc/self/statm: total and resident size, in pages.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total = 0, resident = 0;
  if (!(statm >> total >> resident)) return;
  const double mb = static_cast<double>(resident) *
                    static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
  g_peak_rss_mb = std::max(g_peak_rss_mb, mb);
}

double peak_rss_mb() { return g_peak_rss_mb; }

namespace {

/// The golden record of a finished run: returns plus a digest of the
/// output buffers, no cost-model fields.
common::Json golden_record(const vm::RunResult& run,
                           const vm::Workload& workload) {
  common::Sha256 hasher;
  for (const auto& [name, buffer] : workload.f64_buffers) {
    const std::uint64_t count = buffer.size();
    hasher.update(name);
    hasher.update(&count, sizeof(count));
    hasher.update(buffer.data(), count * sizeof(double));
  }
  for (const auto& [name, buffer] : workload.i64_buffers) {
    const std::uint64_t count = buffer.size();
    hasher.update(name);
    hasher.update(&count, sizeof(count));
    hasher.update(buffer.data(), count * sizeof(long long));
  }
  // Hex-float keeps every bit of the return value in a readable string.
  char ret[64];
  std::snprintf(ret, sizeof(ret), "%a", run.ret_f64);
  common::Json record = common::Json::object();
  record["ret_f64"] = std::string(ret);
  record["ret_i64"] = static_cast<std::int64_t>(run.ret_i64);
  record["buffers_sha256"] = hasher.hex_digest();
  return record;
}

}  // namespace

DirectResult direct_run(const DeployedApp& deployed, const vm::NodeSpec& node,
                        vm::Workload workload, int threads, Golden& golden,
                        const std::string& golden_key) {
  DirectResult out;
  if (!deployed.ok) {
    out.error = "direct deploy failed: " + deployed.error;
    return out;
  }
  out.run = deployed.run_on(node, workload, threads);
  if (!out.run.ok) {
    out.error = "direct run failed: " + out.run.error;
    return out;
  }
  if (!golden.check(golden_key, golden_record(out.run, workload),
                    &out.error)) {
    return out;
  }
  out.ok = true;
  out.digest = service::numerics_digest(out.run, workload);
  out.workload = std::move(workload);
  return out;
}

bool Golden::load(const std::string& path, bool write_mode,
                  std::string* error) {
  path_ = path;
  write_mode_ = write_mode;
  if (write_mode) return true;
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  try {
    const common::Json doc = common::Json::parse(text.str());
    const common::Json* entries = doc.find("entries");
    if (entries == nullptr || !entries->is_object()) {
      *error = path + ": missing \"entries\" object";
      return false;
    }
    for (const auto& [key, record] : entries->as_object()) {
      entries_[key] = *record;
    }
  } catch (const common::JsonError& e) {
    *error = path + ": " + e.what();
    return false;
  }
  return true;
}

bool Golden::check(const std::string& key, const common::Json& record,
                   std::string* error) {
  const auto it = entries_.find(key);
  if (write_mode_) {
    if (it == entries_.end()) {
      entries_[key] = record;
      return true;
    }
    // Two draws with one key must agree even while writing.
    if (it->second == record) return true;
    *error = "inconsistent outputs for golden key " + key;
    return false;
  }
  if (it == entries_.end()) {
    *error = "golden.json has no entry for " + key;
    return false;
  }
  if (it->second == record) return true;
  *error = "output differs from golden for " + key + ": got " +
           record.dump() + ", want " + it->second.dump();
  return false;
}

bool Golden::save(std::string* error) const {
  common::Json doc = common::Json::object();
  doc["comment"] =
      "Returns and an output-buffer digest (no cost-model fields) for every "
      "(app version, configuration, target ISA, opt level, workload) any "
      "seed can draw. Rewrite with bench/e2e/run.sh --write-golden.";
  common::Json entries = common::Json::object();
  for (const auto& [key, record] : entries_) entries[key] = record;
  doc["entries"] = std::move(entries);
  std::ofstream out(path_);
  out << doc.dump(1) << "\n";
  if (!out) {
    *error = "cannot write " + path_;
    return false;
  }
  return true;
}

std::string golden_key(const std::string& app, const std::string& version,
                       const DeployedApp& deployed,
                       const std::string& workload_name) {
  // IR deployments record their configuration only in the derived
  // image's "configuration|target" annotation.
  std::string configuration = deployed.configuration.id();
  if (configuration.empty()) {
    const auto it = deployed.image.annotations.find(
        container::kAnnotationDeployedConfig);
    if (it != deployed.image.annotations.end()) {
      configuration = it->second.substr(0, it->second.find('|'));
    }
  }
  return app + "@" + version + "|" + configuration + "|" +
         std::string(isa::to_string(deployed.target.visa)) + "|O" +
         std::to_string(deployed.target.opt_level) + "|" + workload_name;
}

std::string node_model(const std::string& node_name) {
  const auto dash = node_name.rfind('-');
  return dash == std::string::npos ? node_name : node_name.substr(0, dash);
}

ScopedDir::ScopedDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

ScopedDir::~ScopedDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace xaas::e2e
