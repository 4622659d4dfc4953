// deploy_fleet: the build -> specialize pipeline at the paper's §6.4
// scale (minimd with 1736 generated modules), with no serving plane. A
// closed-loop operator ships releases back to back; each release builds
// the IR container (5 SIMD levels x GPU OFF/CUDA) and the source image,
// then deploys both to a 20-node fleet (4 each of ault01, ault23,
// ault25, devbox, aurora) through DeployScheduler::deploy_batch and the
// BuildFarm's pool. Caches start fresh for every release, so every
// release pays the full translation-unit cost. The operation measured is
// bringing one node to the new release.
//
// A release differs from the previous one by a comment in one source
// file, so its outputs are version-independent: every release's deployed
// programs must reproduce the direct deploy+run of the first one.
#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "apps/minimd.hpp"
#include "bench/e2e/common.hpp"
#include "bench/e2e/trace.hpp"
#include "common/rng.hpp"
#include "minicc/compile_cache.hpp"
#include "service/build_farm.hpp"
#include "service/deploy_scheduler.hpp"
#include "service/gateway.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::e2e {
namespace {

constexpr int kModules = 1736;
constexpr int kGpuModules = 41;
constexpr int kPerModel = 4;
constexpr std::size_t kThreads = 4;
/// Release variants a seed can draw (the tag a release writes into a
/// source comment).
constexpr std::uint64_t kVariants = 8;
constexpr apps::MdWorkloadParams kCheckWorkload{64, 8, 4, 64};

const char* const kModels[] = {"ault01", "ault23", "ault25", "devbox",
                               "aurora"};

/// The IR configuration each model deploys: its best SIMD level, plus
/// the CUDA backend where the node has an NVIDIA GPU and CUDA module.
std::map<std::string, std::string> ir_selections(const vm::NodeSpec& node) {
  const bool cuda = node.gpu && node.gpu->vendor == "NVIDIA" &&
                    node.has_module("cuda");
  return {{"MD_SIMD", std::string(isa::to_string(node.best_vector_isa()))},
          {"MD_GPU", cuda ? "CUDA" : "OFF"}};
}

Application make_variant(std::uint64_t variant) {
  apps::MinimdOptions options;
  options.module_count = kModules;
  options.gpu_module_count = kGpuModules;
  Application app = apps::make_minimd(options);
  const std::string path = "src/main.c";
  app.source_tree.write(path, *app.source_tree.read(path) + "\n/* release " +
                                  std::to_string(variant) + " */\n");
  return app;
}

IrBuildOptions ir_build_options() {
  IrBuildOptions options;
  options.points = {
      {"MD_SIMD", {"SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"}},
      {"MD_GPU", {"OFF", "CUDA"}}};
  options.threads = kThreads;
  return options;
}

struct ModelReference {
  std::string ir_digest;
  std::string src_digest;
};

/// Run `fn` inside a span and record its wall time, scaled to the unit.
template <typename Fn>
auto timed(const char* layer, const char* name, double unit_per_second,
           std::vector<double>& samples, Fn fn) {
  trace::Span span(layer, name);
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  samples.push_back(seconds_since(t0) * unit_per_second);
  return result;
}

/// Direct deploy+run of both container kinds on every model. Also times
/// the single-call layers the fleet path is built from.
bool references(const Application& app, const container::Image& ir_image,
                const container::Image& src_image, Golden& golden,
                std::map<std::string, ModelReference>& out,
                std::map<std::string, std::vector<double>>& timings,
                std::string* error) {
  const std::string version = "m" + std::to_string(kModules);
  for (const char* model : kModels) {
    const vm::NodeSpec& node = vm::node(model);
    IrDeployOptions ir_options;
    ir_options.selections = ir_selections(node);
    const IrDeployPlan plan =
        timed("xaas/ir_deploy", "plan_ir_deploy", 1e6,
              timings["ir_deploy.plan_us"],
              [&] { return plan_ir_deploy(ir_image, node, ir_options); });
    if (!plan.ok) {
      *error = std::string("IR plan on ") + model + " failed: " + plan.error;
      return false;
    }
    const DeployedApp ir =
        timed("xaas/ir_deploy", "deploy_ir_container", 1e3,
              timings["ir_deploy.lower_ms"],
              [&] { return deploy_ir_container(ir_image, node, ir_options); });
    const SourceDeployPlan src_plan =
        timed("xaas/source_container", "plan_source_deploy", 1e6,
              timings["source.plan_us"],
              [&] { return plan_source_deploy(src_image, app, node); });
    if (!src_plan.ok) {
      *error = std::string("source plan on ") + model + " failed: " +
               src_plan.error;
      return false;
    }
    const DeployedApp src =
        timed("xaas/source_container", "build_source_deploy", 1e3,
              timings["source.build_direct_ms"],
              [&] { return build_source_deploy(src_image, app, src_plan); });

    ModelReference& ref = out[model];
    for (auto [deployed, digest] :
         {std::pair{&ir, &ref.ir_digest}, std::pair{&src, &ref.src_digest}}) {
      const DirectResult direct = direct_run(
          *deployed, node, apps::minimd_workload(kCheckWorkload), 1, golden,
          golden_key("minimd", version, *deployed, "md-check"));
      if (!direct.ok) {
        *error = std::string("direct deploy+run on ") + model + ": " +
                 direct.error;
        return false;
      }
      *digest = direct.digest;
    }
  }
  return true;
}

struct ReleaseResult {
  double ir_build_s = 0.0;
  double source_image_ms = 0.0;
  double deploy_ir_s = 0.0;
  double deploy_src_s = 0.0;
  double total_s = 0.0;
  // Ready times of the fleet's nodes, from the start of the release.
  double node_p50_s = 0.0;
  double node_p90_s = 0.0;
  double node_max_s = 0.0;
  common::Json exact = common::Json::object();
};

}  // namespace

Report run_deploy_fleet(const Options& options, Golden& golden) {
  Report report;
  std::string error;
  common::Rng rng(options.seed ^ 0xf1ee7ULL);

  std::vector<vm::NodeSpec> fleet;
  for (const char* model : kModels) {
    for (auto& node : vm::simulated_fleet(vm::node(model), kPerModel,
                                          std::string(model) + "-")) {
      fleet.push_back(std::move(node));
    }
  }

  // Set-up: generate the first release and publish its containers (the
  // IR pipeline and the source image), repeated; the timed releases then
  // start from a warmed-up process.
  std::vector<double> setups;
  Application app;
  container::Image ir_image, src_image;
  for (int i = 0; i < options.setups(); ++i) {
    trace::Span span("setup", "setup");
    const Clock::time_point t0 = Clock::now();
    app = make_variant(rng.next_below(kVariants));
    auto build = build_ir_container(app, isa::Arch::X86_64, ir_build_options());
    if (!build.ok) {
      report.fail("IR container build failed: " + build.error);
      return report;
    }
    ir_image = std::move(build.image);
    src_image = build_source_image(app, isa::Arch::X86_64);
    setups.push_back(seconds_since(t0));
    sample_rss();
  }
  report.e2e["setup_s"] = median(setups);

  std::map<std::string, ModelReference> refs;
  std::map<std::string, std::vector<double>> timings;
  if (options.write_golden) {
    // Every variant must produce the same outputs (one golden key).
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      const Application variant = make_variant(v);
      auto build =
          build_ir_container(variant, isa::Arch::X86_64, ir_build_options());
      const container::Image src =
          build_source_image(variant, isa::Arch::X86_64);
      if (!build.ok ||
          !references(variant, build.image, src, golden, refs, timings,
                      &error)) {
        report.fail(build.ok ? error : build.error);
        return report;
      }
    }
    return report;
  }
  if (!references(app, ir_image, src_image, golden, refs, timings, &error)) {
    report.fail(error);
    return report;
  }

  std::vector<ReleaseResult> releases;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point wall0 = Clock::now();
  // A fixed release count per run length, so every run of a length has
  // the same number of samples. A release takes 7-10 s on a shared 4-core
  // VM, and set-up about 5 s more, so a 20 s run ships two.
  const long release_count =
      std::max(1L, std::lround(options.seconds / 10.0));
  for (long n = 0; n < release_count; ++n) {
    trace::Span release_span("operator", "release");
    ReleaseResult r;
    const Application variant = make_variant(rng.next_below(kVariants));
    const Clock::time_point t0 = Clock::now();
    auto build = [&] {
      trace::Span span("xaas/ir_pipeline", "build_ir_container");
      return build_ir_container(variant, isa::Arch::X86_64, ir_build_options());
    }();
    const Clock::time_point t1 = Clock::now();
    if (!build.ok) {
      report.fail("IR container build failed: " + build.error);
      return report;
    }
    const container::Image src = [&] {
      trace::Span span("xaas/source_container", "build_source_image");
      return build_source_image(variant, isa::Arch::X86_64);
    }();
    const Clock::time_point t2 = Clock::now();

    auto registry = std::make_unique<service::ShardedRegistry>();
    registry->push(build.image, "spcl/minimd:ir");
    registry->push(src, "spcl/minimd:src");
    std::vector<service::FleetDeployRequest> ir_requests;
    std::vector<service::SourceDeployRequest> src_requests;
    for (const vm::NodeSpec& node : fleet) {
      service::FleetDeployRequest ir;
      ir.node = node;
      ir.image_reference = "spcl/minimd:ir";
      ir.options.selections = ir_selections(node);
      ir_requests.push_back(std::move(ir));
      service::SourceDeployRequest source;
      source.node = node;
      source.image_reference = "spcl/minimd:src";
      src_requests.push_back(std::move(source));
    }

    service::DeploySchedulerOptions scheduler_options;
    scheduler_options.threads = kThreads;
    auto scheduler = std::make_unique<service::DeployScheduler>(
        *registry, scheduler_options);
    const Clock::time_point t3 = Clock::now();
    std::vector<service::FleetDeployResult> ir_results;
    {
      trace::Span span("service/deploy_scheduler", "deploy_batch");
      ir_results = scheduler->deploy_batch(std::move(ir_requests));
    }
    const Clock::time_point t4 = Clock::now();
    service::BuildFarmOptions farm_options;
    farm_options.threads = kThreads;
    auto farm = std::make_unique<service::BuildFarm>(*registry, farm_options);
    const Clock::time_point t5 = Clock::now();
    // The source fleet goes through the farm's pool one future per node,
    // as deploy_batch does, polled so that each node's ready time shows:
    // a node is ready once its source build (the last stage) is.
    std::vector<service::FleetDeployResult> src_results(src_requests.size());
    std::vector<double> node_ready;
    {
      trace::Span span("service/build_farm", "deploy_batch");
      std::vector<std::future<service::FleetDeployResult>> pending;
      for (service::SourceDeployRequest& request : src_requests) {
        pending.push_back(farm->submit(std::move(request)));
      }
      while (node_ready.size() < pending.size()) {
        for (std::size_t i = 0; i < pending.size(); ++i) {
          if (!pending[i].valid() ||
              pending[i].wait_for(std::chrono::seconds(0)) !=
                  std::future_status::ready) {
            continue;
          }
          src_results[i] = pending[i].get();
          node_ready.push_back(seconds_since(t0));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const Clock::time_point t6 = Clock::now();

    r.ir_build_s = seconds_between(t0, t1);
    r.source_image_ms = seconds_between(t1, t2) * 1e3;
    r.deploy_ir_s = seconds_between(t3, t4);
    r.deploy_src_s = seconds_between(t5, t6);
    r.total_s = r.ir_build_s + seconds_between(t1, t2) + r.deploy_ir_s +
                r.deploy_src_s;
    r.node_p50_s = median(node_ready);
    r.node_p90_s = quantile(node_ready, 0.9);
    r.node_max_s = quantile(node_ready, 1.0);
    r.exact["ir_pipeline.unique_irs"] = build.stats.unique_irs;
    r.exact["ir_pipeline.total_tus"] = build.stats.total_tus;
    r.exact["ir_pipeline.reduction_pct"] = build.stats.reduction_pct;
    r.exact["deploy_scheduler.lowerings"] = scheduler->cache().lowerings();
    r.exact["build_farm.whole_builds"] = farm->cache().lowerings();
    r.exact["build_farm.tu_compiles"] = farm->tu_compiles();
    r.exact["build_farm.tu_hits"] = farm->tu_cache_hits();

    // Every node deployed; one node per model runs and must reproduce
    // the direct deploy+run bit for bit.
    std::map<std::string, bool> checked;
    for (const auto* results : {&ir_results, &src_results}) {
      const bool is_ir = results == &ir_results;
      for (const service::FleetDeployResult& result : *results) {
        ++report.attempted;
        if (!result.ok) {
          report.fail((is_ir ? "IR deploy on " : "source build on ") +
                      result.node_name + ": " + result.error);
          continue;
        }
        const std::string model = node_model(result.node_name);
        if (checked[(is_ir ? "ir:" : "src:") + model]) continue;
        checked[(is_ir ? "ir:" : "src:") + model] = true;
        vm::Workload workload = apps::minimd_workload(kCheckWorkload);
        const vm::RunResult run = [&] {
          trace::Span span("vm", "run_on");
          return result.run(workload, 1);
        }();
        const std::string& want =
            is_ir ? refs[model].ir_digest : refs[model].src_digest;
        if (!run.ok || service::numerics_digest(run, workload) != want) {
          report.fail(std::string(is_ir ? "IR" : "source") + " deployment on " +
                      result.node_name +
                      " differs from the direct deploy+run");
        }
      }
    }
    // Every cache of the release is still alive here.
    sample_rss();
    releases.push_back(std::move(r));
  }
  const double busy_cores =
      (process_cpu_seconds() - cpu0) / seconds_since(wall0);

  std::vector<double> node_p50, node_p90, node_max, ir_build, source_image,
      deploy_ir, deploy_src;
  double total_seconds = 0.0;
  for (const ReleaseResult& r : releases) {
    node_p50.push_back(r.node_p50_s * 1e3);
    node_p90.push_back(r.node_p90_s * 1e3);
    node_max.push_back(r.node_max_s * 1e3);
    total_seconds += r.total_s;
    ir_build.push_back(r.ir_build_s);
    source_image.push_back(r.source_image_ms);
    deploy_ir.push_back(r.deploy_ir_s);
    deploy_src.push_back(r.deploy_src_s);
    if (!(r.exact == releases.front().exact)) {
      report.fail("release counts differ between releases: " + r.exact.dump() +
                  " vs " + releases.front().exact.dump());
    }
  }
  // The operation is bringing one node to its new release. Per release,
  // the median node's wait, the 90th percentile's, and the slowest
  // node's (the p99 of 20 nodes); each is the median over releases.
  report.e2e["p50_ms"] = median(node_p50);
  report.e2e["p90_ms"] = median(node_p90);
  report.e2e["ops_per_s"] =
      static_cast<double>(fleet.size() * releases.size()) / total_seconds;
  report.exact["release"] = releases.front().exact;

  auto& L = report.layer;
  L["tail.p99_ms"] = median(node_max);
  for (const auto& [name, value] : releases.front().exact.as_object()) {
    L[name] = value->as_double();
  }
  L["fleet.ir_build_s"] = median(ir_build);
  L["fleet.deploy_ir_s"] = median(deploy_ir);
  L["fleet.deploy_src_s"] = median(deploy_src);
  L["source_image.build_ms"] = median(source_image);
  L["tu_cache.compiles"] = L["build_farm.tu_compiles"];
  const double tu_lookups =
      L["build_farm.tu_compiles"] + L["build_farm.tu_hits"];
  L["tu_cache.hit_ratio"] =
      tu_lookups > 0 ? L["build_farm.tu_hits"] / tu_lookups : 0.0;
  L["cpu_busy_cores"] = busy_cores;
  for (const char* name : {"ir_deploy.plan_us", "ir_deploy.lower_ms",
                           "source.plan_us", "source.build_direct_ms"}) {
    L[name] = median(timings[name]);
  }

  if (options.trace) {
    // The same source build through a fresh TU cache, and the VM's
    // decode of one lowered program: single-call layer costs.
    const vm::NodeSpec& node = vm::node("ault01");
    const SourceDeployPlan plan = plan_source_deploy(src_image, app, node);
    std::vector<double> cached;
    for (int i = 0; i < 3; ++i) {
      minicc::CompileCache cache;
      trace::Span span("minicc/compile_cache",
                       "build_source_deploy (TU cache)");
      const Clock::time_point t0 = Clock::now();
      const DeployedApp deployed =
          build_source_deploy(src_image, app, plan, &cache);
      cached.push_back(seconds_since(t0) * 1e3);
      if (!deployed.ok) report.fail("cached source build: " + deployed.error);
    }
    L["source.build_cached_ms"] = median(cached);

    IrDeployOptions ir_options;
    ir_options.selections = ir_selections(node);
    const DeployedApp deployed =
        deploy_ir_container(ir_image, node, ir_options);
    std::vector<double> decode;
    for (int i = 0; i < 5 && deployed.ok; ++i) {
      const vm::Executor executor(deployed.program, node);
      trace::Span span("vm", "Executor::decoded_program");
      const Clock::time_point t0 = Clock::now();
      executor.decoded_program();
      decode.push_back(seconds_since(t0) * 1e3);
    }
    L["vm.decode_ms"] = median(decode);
  }
  return report;
}

}  // namespace xaas::e2e
