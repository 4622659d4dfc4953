// End-to-end lifecycle tests crossing every module: registry push/pull,
// OCI hook injection on deployed images, multi-system fan-out from one
// artifact, and dedup soundness (every configuration deployed from the
// deduplicated IR container computes the same results as a from-scratch
// native build of that configuration).
#include <gtest/gtest.h>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "container/hooks.hpp"
#include "minicc/driver.hpp"
#include "service/sharded_registry.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"
#include "xaas/source_container.hpp"

namespace xaas {
namespace {

TEST(Lifecycle, RegistryRoundTripPreservesDeployability) {
  const Application app = apps::make_minilulesh();
  IrBuildOptions options;
  options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                    {"LULESH_OPENMP", {"OFF", "ON"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;

  service::ShardedRegistry registry;
  const std::string digest = registry.push(build.image, "spcl/lulesh:ir");

  // A client can query specialization points before pulling (§5.2).
  const auto annotation =
      registry.annotation("spcl/lulesh:ir", container::kAnnotationSpecPoints);
  ASSERT_TRUE(annotation.has_value());
  const auto points = spec::SpecializationPoints::from_json(
      common::Json::parse(*annotation));
  EXPECT_EQ(points.application, "minilulesh");

  // Pull by digest and deploy.
  const auto pulled = registry.pull(digest);
  ASSERT_NE(pulled, nullptr);
  IrDeployOptions deploy_options;
  deploy_options.selections = {{"LULESH_MPI", "ON"}, {"LULESH_OPENMP", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(*pulled, vm::node("ault23"), deploy_options);
  ASSERT_TRUE(deployed.ok) << deployed.error;

  // The deployed (derived) image can be pushed back under a
  // specialization-point tag, as §4.3.1 prescribes.
  const std::string deployed_tag =
      "spcl/lulesh:deployed-mpi-omp-" +
      std::string(isa::to_string(deployed.target.visa));
  registry.push(deployed.image, deployed_tag);
  EXPECT_NE(registry.pull(deployed_tag)->digest(), digest);
}

TEST(Lifecycle, OciHookInjectsHostMpiIntoDeployedImage) {
  const Application app = apps::make_minilulesh();
  const container::Image source = build_source_image(app, isa::Arch::AArch64);
  const DeployedApp deployed =
      deploy_source_container(source, app, vm::node("clariden"),
                              [] {
                                SourceDeployOptions o;
                                o.auto_specialize = false;
                                o.selections = {{"LULESH_MPI", "ON"}};
                                return o;
                              }());
  ASSERT_TRUE(deployed.ok) << deployed.error;

  // Runtime hook (linking level, Table 2): replace the image's generic
  // MPICH with the host's Cray MPICH — same ABI, allowed.
  common::Vfs root = deployed.image.flatten();
  const auto result = container::apply_injection_hook(
      root, {{"opt/mpich/lib/libmpi.so",
              container::make_library("mpich", "cray-mpich 8.1 cxi-tuned"),
              "mpich"}});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.replaced.size(), 1u);

  // An OpenMPI host library must be rejected (§2.2).
  const auto bad = container::apply_injection_hook(
      root, {{"opt/mpich/lib/libmpi.so",
              container::make_library("openmpi", "host openmpi"), "openmpi"}});
  EXPECT_FALSE(bad.ok);
}

TEST(Lifecycle, OneIrImageServesManyConfigsEquivalentToNativeBuilds) {
  // Dedup soundness: for every configuration, deploying from the shared
  // IR container computes the same energies as compiling that single
  // configuration natively from source.
  apps::MinimdOptions app_options;
  app_options.module_count = 6;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);

  IrBuildOptions options;
  options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}},
                    {"MD_OPENMP", {"OFF", "ON"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;

  const container::Image source = build_source_image(app, isa::Arch::X86_64);

  for (const char* simd : {"SSE4.1", "AVX_512"}) {
    for (const char* omp : {"OFF", "ON"}) {
      IrDeployOptions deploy_options;
      deploy_options.selections = {{"MD_SIMD", simd}, {"MD_OPENMP", omp}};
      const DeployedApp from_ir =
          deploy_ir_container(build.image, vm::node("ault23"), deploy_options);
      ASSERT_TRUE(from_ir.ok) << from_ir.error;

      SourceDeployOptions native_options;
      native_options.auto_specialize = false;
      native_options.selections = {{"MD_SIMD", simd}, {"MD_OPENMP", omp}};
      const DeployedApp native = deploy_source_container(
          source, app, vm::node("ault23"), native_options);
      ASSERT_TRUE(native.ok) << native.error;

      vm::Workload w1 = apps::minimd_workload({64, 8, 3, 64});
      vm::Workload w2 = apps::minimd_workload({64, 8, 3, 64});
      const auto r1 = from_ir.run(w1, 4);
      const auto r2 = native.run(w2, 4);
      ASSERT_TRUE(r1.ok) << r1.error;
      ASSERT_TRUE(r2.ok) << r2.error;
      EXPECT_NEAR(r1.ret_f64, r2.ret_f64,
                  1e-9 * (std::abs(r2.ret_f64) + 1.0))
          << simd << "/" << omp;
      EXPECT_EQ(w1.f64_buffers.at("px"), w2.f64_buffers.at("px"))
          << simd << "/" << omp;
    }
  }
}

TEST(Lifecycle, MultiArchRegistryServesRightImagePerSystem) {
  const Application app = apps::make_minilulesh();
  service::ShardedRegistry registry;
  registry.push(build_source_image(app, isa::Arch::X86_64),
                "spcl/lulesh:src-amd64");
  registry.push(build_source_image(app, isa::Arch::AArch64),
                "spcl/lulesh:src-arm64");

  for (const auto& [node_name, arch_tag] :
       std::vector<std::pair<const char*, const char*>>{
           {"ault23", "spcl/lulesh:src-amd64"},
           {"aurora", "spcl/lulesh:src-amd64"},
           {"clariden", "spcl/lulesh:src-arm64"}}) {
    const auto image = registry.pull(arch_tag);
    ASSERT_NE(image, nullptr);
    const DeployedApp deployed =
        deploy_source_container(*image, app, vm::node(node_name));
    ASSERT_TRUE(deployed.ok) << node_name << ": " << deployed.error;
    vm::Workload w = apps::minilulesh_workload(64, 3);
    EXPECT_TRUE(deployed.run(w, 2).ok) << node_name;
  }
}

TEST(Lifecycle, EnergyConservedIdenticallyAcrossSystems) {
  // The same IR container deployed on different x86 systems computes
  // bit-identical physics at equal vectorization levels.
  const Application app = apps::make_minilulesh();
  IrBuildOptions options;
  options.points = {{"LULESH_OPENMP", {"ON"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;

  double previous = 0.0;
  bool first = true;
  for (const char* node_name : {"ault23", "ault01", "aurora", "devbox"}) {
    IrDeployOptions deploy_options;
    deploy_options.selections = {{"LULESH_OPENMP", "ON"}};
    deploy_options.march = isa::VectorIsa::SSE4_1;  // equalize lowering
    const DeployedApp deployed =
        deploy_ir_container(build.image, vm::node(node_name), deploy_options);
    ASSERT_TRUE(deployed.ok) << node_name << ": " << deployed.error;
    vm::Workload w = apps::minilulesh_workload(512, 20);
    const auto r = deployed.run(w, 4);
    ASSERT_TRUE(r.ok) << r.error;
    if (!first) {
      EXPECT_DOUBLE_EQ(r.ret_f64, previous) << node_name;
    }
    previous = r.ret_f64;
    first = false;
  }
}

TEST(Lifecycle, ImageSizeShrinksVersusAllConfigBinaries) {
  // Hypothesis 1 economics: one deduplicated IR image is smaller than
  // the sum of per-configuration artifacts.
  apps::MinimdOptions app_options;
  app_options.module_count = 30;
  app_options.gpu_module_count = 2;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions options;
  options.points = {{"MD_SIMD",
                     {"SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"}}};
  options.delay_vectorization = true;
  const auto shared = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(shared.ok);

  IrBuildOptions eager = options;
  eager.delay_vectorization = false;
  eager.dedup_preprocessing = false;
  const auto per_config = build_ir_container(app, isa::Arch::X86_64, eager);
  ASSERT_TRUE(per_config.ok);

  EXPECT_LT(shared.image.total_size_bytes(),
            per_config.image.total_size_bytes());
  EXPECT_LT(shared.stats.unique_irs, per_config.stats.unique_irs);
}

}  // namespace
}  // namespace xaas
