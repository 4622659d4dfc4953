// Compare two sets of end-to-end benchmark results.
//
//   compare [--benchmark BENCHMARK.json] BASE NEW
//
// BASE and NEW are each a results file written by bench/e2e/run.sh or a
// directory of them (every *.json inside, in name order). One row per
// (workload, metric): each side's median and quartiles (Python's
// statistics.quantiles(values, n=4)), the change of the medians, and a
// verdict:
//   improve     NEW wins at least 9 of 10 pairs (runs paired in order,
//               ties count for neither) and the medians differ by more
//               than BASE's interquartile range; or, where BASE's spread
//               exceeds the bound, every NEW run beats every BASE run
//   regress     the NEW median is worse than BASE's by more than the
//               metric's bound from BENCHMARK.json (metrics without a
//               bound: the mirror of the improve rule)
//   unresolved  BASE's spread is wider than the bound, so "no worse
//               than the bound" cannot be shown
//   unchanged   none of the above
// Exits 1 when any end-to-end metric regresses or a run was incorrect.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace {

namespace fs = std::filesystem;
using xaas::common::Json;

struct Spec {
  std::string unit;
  bool lower_is_better = true;
  std::optional<double> bound;  // end-to-end metrics only
};

struct Side {
  // workload -> metric -> values, one per run in file order
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  int runs = 0;
  int incorrect = 0;
};

std::optional<Json> read_json(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  try {
    return Json::parse(text.str());
  } catch (const xaas::common::JsonError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

bool load_side(const fs::path& where, Side& side) {
  std::vector<fs::path> files;
  if (fs::is_directory(where)) {
    for (const auto& entry : fs::directory_iterator(where)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(where);
  }
  for (const fs::path& file : files) {
    const auto doc = read_json(file);
    const Json* workloads = doc ? doc->find("workloads") : nullptr;
    if (workloads == nullptr || !workloads->is_object()) {
      std::fprintf(stderr, "%s: not a results file\n", file.c_str());
      return false;
    }
    ++side.runs;
    for (const auto& [workload, entry] : workloads->as_object()) {
      if (!entry->get_bool("correct")) ++side.incorrect;
      for (const char* group : {"metrics", "layer"}) {
        const Json* metrics = entry->find(group);
        if (metrics == nullptr) continue;
        for (const auto& [name, metric] : metrics->as_object()) {
          side.values[workload][name].push_back(metric->get_double("value"));
        }
      }
    }
  }
  return side.runs > 0;
}

/// statistics.quantiles(data, n=4) with the default 'exclusive' method.
std::vector<double> quartiles(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  if (ld == 1) return {data[0], data[0], data[0]};
  std::vector<double> out;
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((data[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   data[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

std::string verdict(const Spec& spec, const std::vector<double>& base,
                    const std::vector<double>& next) {
  const auto qb = quartiles(base);
  const auto qn = quartiles(next);
  const double med_b = qb[1], med_n = qn[1];
  const double iqr_b = qb[2] - qb[0];
  // Signed improvement of a over b in the metric's better direction.
  const auto gain = [&](double a, double b) {
    return spec.lower_is_better ? b - a : a - b;
  };
  const std::size_t pairs = std::min(base.size(), next.size());
  std::size_t wins = 0, losses = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const double g = gain(next[i], base[i]);
    if (g > 0) ++wins;
    if (g < 0) ++losses;
  }
  const bool separated = std::abs(med_n - med_b) > iqr_b;
  const double need = 0.9 * static_cast<double>(pairs);
  if (pairs > 0 && static_cast<double>(wins) >= need && separated) {
    return "improve";
  }
  if (!spec.bound) {
    if (pairs > 0 && static_cast<double>(losses) >= need && separated) {
      return "regress";
    }
    return "unchanged";
  }
  const double scale = std::abs(med_b);
  const double worse = -gain(med_n, med_b);
  if (worse > 0 && (scale == 0 || worse / scale > *spec.bound)) {
    return "regress";
  }
  if (scale > 0 && iqr_b / scale > *spec.bound) {
    const double worst_next = spec.lower_is_better
                                  ? *std::max_element(next.begin(), next.end())
                                  : *std::min_element(next.begin(), next.end());
    const double best_base = spec.lower_is_better
                                 ? *std::min_element(base.begin(), base.end())
                                 : *std::max_element(base.begin(), base.end());
    return gain(worst_next, best_base) > 0 ? "improve" : "unresolved";
  }
  return "unchanged";
}

int usage() {
  std::fprintf(stderr,
               "usage: compare [--benchmark BENCHMARK.json] BASE NEW\n"
               "  BASE, NEW: a results file, or a directory of them\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> sides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      sides.push_back(arg);
    }
  }
  if (sides.size() != 2) return usage();

  const auto bench_doc = read_json(benchmark);
  if (!bench_doc) {
    std::fprintf(stderr, "cannot read %s\n", benchmark.c_str());
    return 2;
  }
  std::map<std::string, Spec> specs;
  std::vector<std::string> order;
  for (const char* group : {"end_to_end", "per_layer"}) {
    const Json* list = bench_doc->find(group);
    if (list == nullptr || !list->is_array()) continue;
    for (const Json& metric : list->items()) {
      Spec spec;
      spec.unit = metric.get_string("unit");
      spec.lower_is_better = metric.get_string("better") != "higher";
      if (const Json* bound = metric.find("bound")) {
        spec.bound = bound->as_double();
      }
      const std::string name = metric.get_string("name");
      specs[name] = spec;
      order.push_back(name);
    }
  }

  Side base, next;
  if (!load_side(sides[0], base) || !load_side(sides[1], next)) return 2;
  std::printf("base: %d runs (%d incorrect), new: %d runs (%d incorrect)\n",
              base.runs, base.incorrect, next.runs, next.incorrect);
  std::printf("%-14s %-32s %-9s %-36s %-36s %9s  %s\n", "workload", "metric",
              "unit", "base median [q1, q3]", "new median [q1, q3]", "change",
              "verdict");
  bool regressed = false;
  for (const auto& [workload, metrics] : base.values) {
    const auto other = next.values.find(workload);
    if (other == next.values.end()) continue;
    for (const std::string& name : order) {
      const auto b = metrics.find(name);
      const auto n = other->second.find(name);
      if (b == metrics.end() || n == other->second.end()) continue;
      const Spec& spec = specs.at(name);
      const auto qb = quartiles(b->second);
      const auto qn = quartiles(n->second);
      if (qb[1] == 0.0 && qn[1] == 0.0 && qb[2] == 0.0 && qn[2] == 0.0) {
        continue;  // the layer is idle in this workload
      }
      const std::string v = verdict(spec, b->second, n->second);
      if (v == "regress" && spec.bound) regressed = true;
      char base_text[64], new_text[64], change[32];
      std::snprintf(base_text, sizeof(base_text), "%.5g [%.5g, %.5g]", qb[1],
                    qb[0], qb[2]);
      std::snprintf(new_text, sizeof(new_text), "%.5g [%.5g, %.5g]", qn[1],
                    qn[0], qn[2]);
      if (qb[1] != 0.0) {
        std::snprintf(change, sizeof(change), "%+.2f%%",
                      (qn[1] - qb[1]) / std::abs(qb[1]) * 100.0);
      } else {
        std::snprintf(change, sizeof(change), "n/a");
      }
      std::printf("%-14s %-32s %-9s %-36s %-36s %9s  %s%s\n", workload.c_str(),
                  name.c_str(), spec.unit.c_str(), base_text, new_text, change,
                  v.c_str(), spec.bound ? "" : " (no bound)");
    }
  }
  return regressed || base.incorrect > 0 || next.incorrect > 0 ? 1 : 0;
}
