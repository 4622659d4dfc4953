// Quickstart: the full XaaS IR-container lifecycle on the LULESH
// mini-app — build one multi-configuration IR image, push it to a
// registry, pull it on an HPC system, deploy one configuration, and run.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "apps/minilulesh.hpp"
#include "service/sharded_registry.hpp"
#include "vm/node.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

int main() {
  using namespace xaas;

  // 1. The application: source tree + build script with two
  //    specialization points (MPI, OpenMP).
  const Application app = apps::make_minilulesh();
  std::printf("application: %s (%zu source files)\n", app.name.c_str(),
              app.source_tree.size());

  // 2. Build the IR container: every configuration is generated, compile
  //    commands are compared behaviorally, and only unique IR files are
  //    built (the paper's 20 TUs -> 14 IRs example).
  IrBuildOptions build_options;
  build_options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                          {"LULESH_OPENMP", {"OFF", "ON"}}};
  const IrContainerBuild build =
      build_ir_container(app, isa::Arch::X86_64, build_options);
  if (!build.ok) {
    std::printf("IR container build failed: %s\n", build.error.c_str());
    return 1;
  }
  std::printf("IR container: %d configurations, %d TUs -> %d IR files "
              "(%.0f%% reduction)\n",
              build.stats.configurations, build.stats.total_tus,
              build.stats.unique_irs, build.stats.reduction_pct);

  // 3. Publish to a registry; the image is a standard OCI-style artifact
  //    whose annotations carry the specialization points.
  service::ShardedRegistry registry;
  const std::string digest = registry.push(build.image, "spcl/minilulesh:ir");
  std::printf("pushed %s (%zu bytes)\n", digest.substr(0, 19).c_str(),
              build.image.total_size_bytes());

  // 4. On the HPC system: pull and deploy one configuration. The IR is
  //    optimized, vectorized for the node's AVX-512 units, lowered, and
  //    linked — no source rebuild.
  const auto image = registry.pull("spcl/minilulesh:ir");
  IrDeployOptions deploy_options;
  deploy_options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(*image, vm::node("ault23"), deploy_options);
  if (!deployed.ok) {
    std::printf("deployment failed: %s\n", deployed.error.c_str());
    return 1;
  }
  for (const auto& line : deployed.log) std::printf("  deploy: %s\n", line.c_str());

  // 5. Run a Sedov-like blast problem on 8 threads.
  vm::Workload workload = apps::minilulesh_workload(4096, 50);
  const vm::RunResult result = deployed.run(workload, 8);
  if (!result.ok) {
    std::printf("run failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("ran %lld instructions, modeled %.3f ms, total energy %.3f\n",
              result.instructions, result.elapsed_seconds * 1e3,
              result.ret_f64);
  std::printf("deployed image %s derives from registry image %s\n",
              deployed.image.digest().substr(0, 19).c_str(),
              digest.substr(0, 19).c_str());
  return 0;
}
