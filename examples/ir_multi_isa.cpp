// Scenario: one IR container, many microarchitectures. Build the MD app's
// IR container once with five x86 vectorization configurations, inspect
// the dedup statistics, then deploy the SAME image at three ISA levels
// and compare modeled runtimes — the Fig. 12 workflow as a library user
// would drive it.
#include <cstdio>

#include "apps/minimd.hpp"
#include "service/sharded_registry.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

int main() {
  using namespace xaas;

  apps::MinimdOptions app_options;
  app_options.module_count = 24;
  app_options.gpu_module_count = 2;
  const Application app = apps::make_minimd(app_options);

  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD",
                           {"SSE4.1", "AVX2_128", "AVX_256", "AVX2_256",
                            "AVX_512"}}};
  const IrContainerBuild build =
      build_ir_container(app, isa::Arch::X86_64, build_options);
  if (!build.ok) {
    std::printf("build failed: %s\n", build.error.c_str());
    return 1;
  }
  std::printf("IR container for %s:\n", app.name.c_str());
  std::printf("  %d configurations, %d TUs -> %d unique IRs (%.1f%% "
              "reduction)\n",
              build.stats.configurations, build.stats.total_tus,
              build.stats.unique_irs, build.stats.reduction_pct);
  std::printf("  raw flag incompatibility: %.1f%%, tuning-only groups: "
              "%.1f%%\n",
              build.stats.flag_incompatible_pct, build.stats.tuning_only_pct);

  // Shared IR files serve several configurations.
  int shared = 0;
  for (const auto& artifact : build.artifacts) {
    if (artifact.used_by.size() == 5) ++shared;
  }
  std::printf("  %d IR files shared by all five configurations\n\n", shared);

  service::ShardedRegistry registry;
  registry.push(build.image, "spcl/minimd:ir-x86");
  std::printf("registry architectures: %s\n\n",
              registry.pull("spcl/minimd:ir-x86")->architecture.c_str());

  for (const char* simd : {"SSE4.1", "AVX2_256", "AVX_512"}) {
    IrDeployOptions deploy_options;
    deploy_options.selections = {{"MD_SIMD", simd}};
    const DeployedApp deployed = deploy_ir_container(
        *registry.pull("spcl/minimd:ir-x86"), vm::node("ault01"),
        deploy_options);
    if (!deployed.ok) {
      std::printf("%s: %s\n", simd, deployed.error.c_str());
      continue;
    }
    vm::Workload workload = apps::minimd_workload({1500, 48, 20, 3000});
    const auto result = deployed.run(workload, 1);
    std::printf("deploy @ %-9s -> %.3f ms modeled (single core)\n", simd,
                result.ok ? result.elapsed_seconds * 1e3 : -1.0);
  }
  return 0;
}
