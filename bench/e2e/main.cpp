// End-to-end benchmark runner: runs one workload in this process and
// reports it three ways — "workload metric value unit" lines, an entry
// merged into a results file (with run metadata), and, as the last line
// of stdout, one JSON object {correct, attempted, failed, metrics}.
//
//   e2e --workload serve_hot --seed 1 --seconds 20 [--trace]
//       [--smoke] [--baseline untraced.json] [--result results.json]...
//   e2e --write-golden --golden bench/e2e/golden.json
//   e2e --summary results.json [--trace]
//
// Usually driven by bench/e2e/run.sh (see README.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench/e2e/common.hpp"
#include "bench/e2e/trace.hpp"

namespace xaas::e2e {
namespace {

struct WorkloadEntry {
  const char* name;
  Report (*run)(const Options&, Golden&);
};

const WorkloadEntry kWorkloads[] = {
    {"serve_hot", run_serve_hot},
    {"serve_release", run_serve_release},
    {"deploy_fleet", run_deploy_fleet},
    {"run_apps", run_run_apps},
};

std::optional<common::Json> read_json(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  try {
    return common::Json::parse(text.str());
  } catch (const common::JsonError& e) {
    *error = path + ": " + e.what();
    return std::nullopt;
  }
}

bool write_json(const std::string& path, const common::Json& doc,
                std::string* error) {
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

common::Json metric_object(const std::vector<MetricSpec>& specs,
                           const std::map<std::string, double>& values) {
  common::Json out = common::Json::object();
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    common::Json metric = common::Json::object();
    metric["value"] = it == values.end() ? 0.0 : it->second;
    metric["unit"] = spec.unit;
    out[spec.name] = std::move(metric);
  }
  return out;
}

common::Json run_metadata(const Options& options) {
  common::Json meta = common::Json::object();
  const char* sha = std::getenv("XAAS_E2E_GIT_SHA");
  const char* dirty = std::getenv("XAAS_E2E_GIT_DIRTY");
  meta["git_sha"] = sha ? sha : "unknown";
  meta["git_dirty"] = dirty ? std::string(dirty) == "1" : false;
  meta["build_type"] = XAAS_E2E_BUILD_TYPE;
  meta["compiler"] = XAAS_E2E_COMPILER;
  meta["nproc"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) == 3) {
    common::Json avg = common::Json::array();
    for (const double l : load) avg.push_back(l);
    meta["loadavg"] = std::move(avg);
  }
  meta["seed"] = static_cast<std::int64_t>(options.seed);
  meta["seconds"] = options.seconds;
  meta["smoke"] = options.smoke;
  return meta;
}

/// The one-line result: every end-to-end metric untraced, every
/// per-layer metric traced.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const common::Json& metrics) {
  common::Json line = common::Json::object();
  line["correct"] = correct;
  line["attempted"] = attempted;
  line["failed"] = failed;
  line["metrics"] = metrics;
  return line.dump();
}

void print_layer_table() {
  std::printf("%-28s %9s %12s %12s %12s\n", "layer", "spans", "busy_ms",
              "wait_ms", "self_ms");
  for (const trace::LayerRow& row : trace::layer_table()) {
    std::printf("%-28s %9llu %12.3f %12.3f %12.3f\n", row.layer.c_str(),
                static_cast<unsigned long long>(row.count), row.busy_ms,
                row.wait_ms, row.self_ms);
  }
}

int run_workload(const Options& options) {
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (options.workload == w.name) entry = &w;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Golden golden;
  std::string error;
  if (!golden.load(options.golden_path, false, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  trace::enable(options.trace);

  Report report = entry->run(options, golden);
  sample_rss();
  report.e2e["peak_rss_mb"] = peak_rss_mb();
  report.layer["trace.spans"] = static_cast<double>(trace::span_count());

  const std::string w = options.workload;
  // A traced run is checked against the untraced run with the same
  // inputs: identical exact counts, and the difference is the overhead.
  std::optional<common::Json> baseline;
  if (options.trace && !options.baseline_path.empty()) {
    baseline = read_json(options.baseline_path, &error);
    const common::Json* entry_json =
        baseline ? baseline->find("workloads") : nullptr;
    entry_json = entry_json ? entry_json->find(w) : nullptr;
    if (entry_json == nullptr) {
      report.fail("no untraced baseline for " + w + " in " +
                  options.baseline_path + (error.empty() ? "" : ": " + error));
      baseline.reset();
    } else {
      const common::Json* exact = entry_json->find("exact");
      if (exact == nullptr || !(*exact == report.exact)) {
        report.fail("exact counts differ between the traced and untraced "
                    "runs: traced " + report.exact.dump() + ", untraced " +
                    (exact ? exact->dump() : std::string("none")));
      }
      baseline = *entry_json;
    }
  }

  for (const std::string& warning : report.warnings) {
    std::printf("%s WARNING %s\n", w.c_str(), warning.c_str());
  }
  for (const std::string& message : report.errors) {
    std::printf("%s ERROR %s\n", w.c_str(), message.c_str());
  }
  for (const MetricSpec& spec : end_to_end_metrics()) {
    std::printf("%s %s %.6g %s\n", w.c_str(), spec.name, report.e2e[spec.name],
                spec.unit);
  }
  for (const MetricSpec& spec : per_layer_metrics()) {
    std::printf("%s %s %.6g %s\n", w.c_str(), spec.name,
                report.layer[spec.name], spec.unit);
  }
  if (options.trace) {
    print_layer_table();
    const std::string trace_path =
        options.work_dir + "/trace-" + w + ".json";
    if (!trace::write_chrome(trace_path, &error)) report.fail(error);
    std::printf("%s trace %s (%zu spans)\n", w.c_str(), trace_path.c_str(),
                trace::span_count());
    if (baseline) {
      const common::Json* untraced = baseline->find("metrics");
      for (const MetricSpec& spec : end_to_end_metrics()) {
        const common::Json* m = untraced ? untraced->find(spec.name) : nullptr;
        if (m == nullptr) continue;
        std::printf("%s trace_overhead.%s %.6g %s\n", w.c_str(), spec.name,
                    report.e2e[spec.name] - m->get_double("value"), spec.unit);
      }
    }
  }

  const bool correct = report.failed == 0;
  common::Json entry_json = common::Json::object();
  entry_json["trace"] = options.trace;
  entry_json["correct"] = correct;
  entry_json["attempted"] = report.attempted;
  entry_json["failed"] = report.failed;
  common::Json errors = common::Json::array();
  for (const std::string& e : report.errors) errors.push_back(e);
  entry_json["errors"] = std::move(errors);
  common::Json warnings = common::Json::array();
  for (const std::string& e : report.warnings) warnings.push_back(e);
  entry_json["warnings"] = std::move(warnings);
  entry_json["metrics"] = metric_object(end_to_end_metrics(), report.e2e);
  entry_json["layer"] = metric_object(per_layer_metrics(), report.layer);
  entry_json["exact"] = report.exact;

  for (const std::string& path : options.result_paths) {
    common::Json doc = common::Json::object();
    if (std::filesystem::exists(path)) {
      if (auto existing = read_json(path, &error)) doc = std::move(*existing);
    }
    doc["meta"] = run_metadata(options);
    const char* section = options.trace ? "traced" : "workloads";
    if (doc.find(section) == nullptr) doc[section] = common::Json::object();
    doc[section][w] = entry_json;
    if (!write_json(path, doc, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
  }

  std::printf("%s\n",
              result_line(correct, report.attempted, report.failed,
                          options.trace ? entry_json["layer"]
                                        : entry_json["metrics"])
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int write_golden(Options options) {
  Golden golden;
  std::string error;
  golden.load(options.golden_path, true, &error);
  options.write_golden = true;
  options.smoke = true;
  for (const WorkloadEntry& w : kWorkloads) {
    std::printf("enumerating %s\n", w.name);
    std::fflush(stdout);
    const Report report = w.run(options, golden);
    if (report.failed != 0) {
      for (const std::string& e : report.errors) {
        std::fprintf(stderr, "%s: %s\n", w.name, e.c_str());
      }
      return 1;
    }
  }
  if (!golden.save(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu golden entries to %s\n", golden.size(),
              options.golden_path.c_str());
  return 0;
}

/// Combined result line over every workload in a results file (the
/// multi-workload form of run.sh): metrics are "<workload>.<metric>".
int summary(const std::string& path, bool traced) {
  std::string error;
  const auto doc = read_json(path, &error);
  const common::Json* section =
      doc ? doc->find(traced ? "traced" : "workloads") : nullptr;
  if (section == nullptr || !section->is_object()) {
    std::fprintf(stderr, "no results in %s %s\n", path.c_str(), error.c_str());
    return 2;
  }
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  common::Json metrics = common::Json::object();
  for (const auto& [workload, entry] : section->as_object()) {
    correct = correct && entry->get_bool("correct");
    attempted += static_cast<std::uint64_t>(entry->get_int("attempted"));
    failed += static_cast<std::uint64_t>(entry->get_int("failed"));
    const common::Json* values = entry->find(traced ? "layer" : "metrics");
    if (values == nullptr) continue;
    for (const auto& [name, metric] : values->as_object()) {
      metrics[workload + "." + name] = *metric;
    }
  }
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e --workload W --seed N --seconds S [--trace] "
               "[--smoke] [--golden F] [--baseline F] [--result F] "
               "[--work-dir D]\n"
               "       e2e --write-golden [--golden F]\n"
               "       e2e --summary RESULTS [--trace]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (std::strcmp(XAAS_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to measure a '%s' build: configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 XAAS_E2E_BUILD_TYPE);
    return 2;
  }
  Options options;
  options.golden_path = "bench/e2e/golden.json";
  bool golden_mode = false;
  std::string summary_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--write-golden") {
      golden_mode = true;
    } else if (arg == "--workload" && (v = value())) {
      options.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--golden" && (v = value())) {
      options.golden_path = v;
    } else if (arg == "--baseline" && (v = value())) {
      options.baseline_path = v;
    } else if (arg == "--result" && (v = value())) {
      options.result_paths.push_back(v);
    } else if (arg == "--work-dir" && (v = value())) {
      options.work_dir = v;
    } else if (arg == "--summary" && (v = value())) {
      summary_path = v;
    } else {
      return usage();
    }
  }
  if (!summary_path.empty()) return summary(summary_path, options.trace);
  if (golden_mode) return write_golden(options);
  if (options.workload.empty() || !(options.seconds > 0.0)) return usage();
  if (options.smoke) options.seconds = std::min(options.seconds, 3.0);
  return run_workload(options);
}

}  // namespace
}  // namespace xaas::e2e

int main(int argc, char** argv) { return xaas::e2e::main_impl(argc, argv); }
