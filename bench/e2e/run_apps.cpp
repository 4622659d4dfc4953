// run_apps: the applications themselves. Set-up deploys, on six systems
// (ault01, ault23, ault25, aurora, devbox, clariden), a portable build
// and two specialized builds — the source container auto-specialized,
// and the IR container lowered at the best ISA it offers the node — of
// minimd, minillama and minilulesh. The timed part is one thread running
// the paper-proxy workloads on every (app, system, build) in seeded
// order, pass after pass. The VM does almost all the work; the cost
// model's portable/specialized ratio is the generated code's quality.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "apps/minillama.hpp"
#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "bench/e2e/common.hpp"
#include "bench/e2e/trace.hpp"
#include "common/rng.hpp"
#include "service/gateway.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::e2e {
namespace {

constexpr int kThreads = 16;  // modeled OpenMP threads of every run

const char* const kNodes[] = {"ault01", "ault23", "ault25",
                              "aurora", "devbox", "clariden"};

struct AppSpec {
  std::string name;
  std::string simd_option;  // "" when the app has no SIMD point
  std::string gpu_option;
  std::string workload_name;
  std::string version;  // golden-key version (minimd: its module count)
  Application (*make)();
  vm::Workload (*workload)();
};

Application make_md() { return apps::make_minimd(); }
vm::Workload md_workload() {
  return apps::minimd_workload({1000, 32, 20, 2000});
}
vm::Workload llama_workload() { return apps::minillama_workload({512, 6, 3}); }
vm::Workload lulesh_workload() { return apps::minilulesh_workload(4096, 20); }

const std::vector<AppSpec>& app_specs() {
  static const std::vector<AppSpec> kApps = {
      {"minimd", "MD_SIMD", "MD_GPU", "md-1000x32x20", "m40", make_md,
       md_workload},
      {"minillama", "LL_SIMD", "LL_GPU", "llama-512x6x3", "v0",
       apps::make_minillama, llama_workload},
      {"minilulesh", "", "", "lulesh-4096x20", "v0", apps::make_minilulesh,
       lulesh_workload},
  };
  return kApps;
}

/// SIMD levels an IR container is built for, per architecture.
std::vector<std::string> ir_simd_levels(const std::string& app,
                                        isa::Arch arch) {
  if (app == "minimd") {
    return arch == isa::Arch::X86_64
               ? std::vector<std::string>{"SSE4.1", "AVX2_128", "AVX_256",
                                          "AVX2_256", "AVX_512"}
               : std::vector<std::string>{"ARM_NEON_ASIMD", "ARM_SVE"};
  }
  if (app == "minillama") {
    return arch == isa::Arch::X86_64
               ? std::vector<std::string>{"SSE4.1", "AVX2_256", "AVX_512"}
               : std::vector<std::string>{"ARM_NEON_ASIMD"};
  }
  return {};
}

struct Images {
  Application app;
  container::Image source;
  container::Image ir;
};

enum class BuildKind { Portable, Source, Ir };
const char* build_name(BuildKind kind) {
  switch (kind) {
    case BuildKind::Portable: return "portable";
    case BuildKind::Source: return "source";
    case BuildKind::Ir: return "ir";
  }
  return "?";
}

/// One (app, system, build) the timed loop runs.
struct Target {
  std::size_t app = 0;
  std::string node;
  BuildKind kind = BuildKind::Portable;
  DeployedApp deployed;
  std::string digest;  // direct run in set-up
  long long instructions = 0;
  double modeled_seconds = 0.0;
};

bool build_images(std::map<std::pair<std::size_t, isa::Arch>, Images>& out,
                  std::string* error) {
  for (std::size_t a = 0; a < app_specs().size(); ++a) {
    const AppSpec& spec = app_specs()[a];
    for (const isa::Arch arch : {isa::Arch::X86_64, isa::Arch::AArch64}) {
      Images images;
      images.app = spec.make();
      images.source = build_source_image(images.app, arch);
      IrBuildOptions options;
      options.threads = 1;
      const auto levels = ir_simd_levels(spec.name, arch);
      if (!levels.empty()) {
        options.points = {{spec.simd_option, levels}};
      } else {
        options.points = {{"LULESH_OPENMP", {"ON"}}};
      }
      auto build = [&] {
        trace::Span span("xaas/ir_pipeline", "build_ir_container");
        return build_ir_container(images.app, arch, options);
      }();
      if (!build.ok) {
        *error = "IR build of " + spec.name + " failed: " + build.error;
        return false;
      }
      images.ir = std::move(build.image);
      out[{a, arch}] = std::move(images);
    }
  }
  return true;
}

DeployedApp deploy(const AppSpec& spec, const Images& images,
                   const vm::NodeSpec& node, BuildKind kind) {
  const bool x86 = node.cpu.arch == isa::Arch::X86_64;
  if (kind == BuildKind::Ir) {
    trace::Span span("xaas/ir_deploy", "deploy_ir_container");
    IrDeployOptions options;
    const auto levels = ir_simd_levels(spec.name, node.cpu.arch);
    if (levels.empty()) {
      options.selections = {{"LULESH_OPENMP", "ON"}};
      options.march = node.best_vector_isa();
    } else {
      // The strongest level the container offers that the node runs.
      for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        const auto visa = isa::vector_isa_from_string(*it);
        if (visa && isa::runs_on(*visa, node.best_vector_isa())) {
          options.selections = {{spec.simd_option, *it}};
          break;
        }
      }
    }
    return deploy_ir_container(images.ir, node, options);
  }
  trace::Span span("xaas/source_container", "deploy_source_container");
  SourceDeployOptions options;
  if (kind == BuildKind::Portable) {
    // One binary for every system of the architecture: the weakest SIMD
    // level, no GPU backend. fftw3 (minimd's default FFT) is absent on
    // Aurora, so its portable build links MKL instead.
    options.auto_specialize = false;
    if (!spec.simd_option.empty()) {
      options.selections[spec.simd_option] = x86 ? "SSE4.1" : "ARM_NEON_ASIMD";
      options.selections[spec.gpu_option] = "OFF";
    }
    if (spec.name == "minimd" && !node.has_module("fftw")) {
      options.selections["MD_FFT"] = "mkl";
    }
  }
  return deploy_source_container(images.source, images.app, node, options);
}

/// Set-up: build every image and deploy every (app, system, build).
bool set_up(std::vector<Target>& targets, std::string* error) {
  std::map<std::pair<std::size_t, isa::Arch>, Images> images;
  if (!build_images(images, error)) return false;
  targets.clear();
  for (std::size_t a = 0; a < app_specs().size(); ++a) {
    for (const char* name : kNodes) {
      const vm::NodeSpec& node = vm::node(name);
      for (const BuildKind kind :
           {BuildKind::Portable, BuildKind::Source, BuildKind::Ir}) {
        Target target;
        target.app = a;
        target.node = name;
        target.kind = kind;
        target.deployed =
            deploy(app_specs()[a], images.at({a, node.cpu.arch}), node, kind);
        if (!target.deployed.ok) {
          *error = app_specs()[a].name + " " + build_name(kind) + " on " +
                   name + ": " + target.deployed.error;
          return false;
        }
        targets.push_back(std::move(target));
      }
    }
  }
  // Decode once, as the serving plane does at deploy time, so the timed
  // runs measure execution only. After the vector is final: the decoded
  // form is tied to its program.
  for (Target& target : targets) {
    trace::Span span("vm", "Executor::decoded_program");
    target.deployed.decoded =
        vm::Executor(target.deployed.program, vm::node(target.node))
            .decoded_program();
  }
  return true;
}

}  // namespace

Report run_run_apps(const Options& options, Golden& golden) {
  Report report;
  std::string error;
  std::vector<Target> targets;
  std::vector<double> setups;
  for (int i = 0; i < options.setups(); ++i) {
    trace::Span span("setup", "setup");
    const Clock::time_point t0 = Clock::now();
    if (!set_up(targets, &error)) {
      report.fail(error);
      return report;
    }
    setups.push_back(seconds_since(t0));
    sample_rss();
  }
  report.e2e["setup_s"] = median(setups);

  // References: one direct run of every target, checked against golden.
  for (Target& target : targets) {
    const AppSpec& spec = app_specs()[target.app];
    const auto& values = target.deployed.configuration.option_values;
    if (spec.name == "minimd" && target.node == "aurora" &&
        target.kind == BuildKind::Portable &&
        (!values.count("MD_FFT") || values.at("MD_FFT") != "mkl")) {
      report.fail(
          "minimd's portable build on aurora did not select MD_FFT=mkl");
    }
    const DirectResult direct = direct_run(
        target.deployed, vm::node(target.node), spec.workload(), kThreads,
        golden,
        golden_key(spec.name, spec.version, target.deployed,
                   spec.workload_name));
    if (!direct.ok) {
      report.fail(spec.name + " " + build_name(target.kind) + " on " +
                  target.node + ": " + direct.error);
      return report;
    }
    target.digest = direct.digest;
    target.instructions = direct.run.instructions;
    target.modeled_seconds = direct.run.elapsed_seconds;
  }
  if (options.write_golden) return report;

  // Generated-code quality: portable / auto-specialized modeled time per
  // (app, system); exact, since the cost model is deterministic.
  std::map<std::string, std::vector<double>> speedups;
  std::vector<double> all_speedups;
  std::map<std::string, double> portable;
  for (const Target& t : targets) {
    if (t.kind == BuildKind::Portable) {
      portable[app_specs()[t.app].name + "@" + t.node] = t.modeled_seconds;
    }
  }
  for (const Target& t : targets) {
    if (t.kind != BuildKind::Source) continue;
    const std::string& app = app_specs()[t.app].name;
    const double ratio = portable.at(app + "@" + t.node) / t.modeled_seconds;
    speedups[app].push_back(ratio);
    all_speedups.push_back(ratio);
  }

  common::Rng rng(options.seed ^ 0xa995ULL);
  std::vector<std::size_t> order(targets.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> wall_ms;
  std::map<std::string, std::vector<double>> app_ms;
  std::map<std::string, double> app_instr, app_seconds;
  double run_seconds = 0.0;
  long long instructions = 0;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point wall0 = Clock::now();
  // Whole passes, a fixed number per run length, so every run covers each
  // target equally often. A pass takes 6-9 s on a shared 4-core VM, and
  // set-up (which runs every target once for its reference) about as
  // long, so a 20 s run makes two.
  const long passes = std::max(1L, std::lround(options.seconds / 10.0));
  for (long pass = 0; pass < passes; ++pass) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::size_t index : order) {
      const Target& target = targets[index];
      const AppSpec& spec = app_specs()[target.app];
      vm::Workload workload = spec.workload();
      const vm::NodeSpec& node = vm::node(target.node);
      const Clock::time_point t0 = Clock::now();
      const vm::RunResult run = [&] {
        trace::Span span("vm", "run_on");
        return target.deployed.run_on(node, workload, kThreads);
      }();
      const double seconds = seconds_since(t0);
      ++report.attempted;
      if (!run.ok) {
        report.fail(spec.name + " on " + target.node + ": " + run.error);
        continue;
      }
      {
        trace::Span span("common/sha256", "numerics_digest");
        if (service::numerics_digest(run, workload) != target.digest) {
          report.fail(spec.name + " " + build_name(target.kind) + " on " +
                      target.node + " differs from its set-up run");
        }
      }
      wall_ms.push_back(seconds * 1e3);
      app_ms[spec.name].push_back(seconds * 1e3);
      app_instr[spec.name] += static_cast<double>(run.instructions);
      app_seconds[spec.name] += seconds;
      run_seconds += seconds;
      instructions += run.instructions;
    }
    sample_rss();
  }
  const double busy_cores =
      (process_cpu_seconds() - cpu0) / seconds_since(wall0);

  report.e2e["p50_ms"] = median(wall_ms);
  report.e2e["p90_ms"] = quantile(wall_ms, 0.90);
  report.e2e["ops_per_s"] = static_cast<double>(wall_ms.size()) / run_seconds;

  auto& L = report.layer;
  L["tail.p99_ms"] = quantile(wall_ms, 0.99);
  common::Json per_app = common::Json::object();
  for (const AppSpec& spec : app_specs()) {
    const std::string& app = spec.name;
    long long pass_instructions = 0;
    for (const Target& t : targets) {
      if (app_specs()[t.app].name == app) pass_instructions += t.instructions;
    }
    L["vm.instructions." + app] = static_cast<double>(pass_instructions);
    L["vm.minst_per_s." + app] = app_instr[app] / app_seconds[app] / 1e6;
    L["vm.run_ms.p50." + app] = median(app_ms[app]);
    L["modeled_speedup." + app] = geomean(speedups[app]);
    common::Json entry = common::Json::object();
    entry["instructions_per_pass"] =
        static_cast<std::int64_t>(pass_instructions);
    entry["modeled_speedup"] = geomean(speedups[app]);
    per_app[app] = std::move(entry);
  }
  L["apps.vm_minst_per_s"] =
      static_cast<double>(instructions) / run_seconds / 1e6;
  L["apps.modeled_speedup"] = geomean(all_speedups);
  L["cpu_busy_cores"] = busy_cores;
  report.exact["apps"] = std::move(per_app);
  report.exact["modeled_speedup"] = geomean(all_speedups);
  report.exact["speedup_pairs"] = all_speedups.size();
  return report;
}

}  // namespace xaas::e2e
