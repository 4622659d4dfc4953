#include "service/build_farm.hpp"

#include <gtest/gtest.h>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "apps/workloads.hpp"
#include "vm/decoded.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::service {
namespace {

Application small_minimd() {
  apps::MinimdOptions options;
  options.module_count = 6;
  options.gpu_module_count = 1;
  return apps::make_minimd(options);
}

std::vector<vm::NodeSpec> fleet_of(const std::string& base, int count) {
  return vm::simulated_fleet(vm::node(base), count, base + "-farm-");
}

SourceDeployOptions explicit_selection(const std::string& simd,
                                       const std::string& fft) {
  SourceDeployOptions options;
  options.auto_specialize = false;
  options.selections = {{"MD_SIMD", simd}, {"MD_FFT", fft}};
  return options;
}

/// The four-microarchitecture fleet the heterogeneous tests use: two
/// AVX-512 groups that differ in FFT library, two AVX2 groups ditto.
struct FarmGroup {
  std::string base_node;
  SourceDeployOptions options;
};

std::vector<FarmGroup> heterogeneous_groups() {
  return {
      {"ault23", explicit_selection("AVX_512", "fftw3")},     // Skylake-X
      {"aurora", explicit_selection("AVX_512", "mkl")},       // SapphireRapids
      {"ault25", explicit_selection("AVX2_256", "fftw3")},    // Zen2
      {"devbox", explicit_selection("AVX2_256", "fftpack")},  // Haswell
  };
}

TEST(BuildFarm, HomogeneousFleetBuildsOnce) {
  const Application app = apps::make_minilulesh();
  const auto image = build_source_image(app, isa::Arch::X86_64);

  ShardedRegistry registry;
  registry.push(image, "spcl/lulesh:src");

  BuildFarmOptions options;
  options.threads = 4;
  BuildFarm farm(registry, options);

  constexpr int kNodes = 12;
  std::vector<SourceDeployRequest> requests;
  for (auto& node : fleet_of("ault23", kNodes)) {
    requests.push_back({std::move(node), "spcl/lulesh:src", {}});
  }
  const auto results = farm.deploy_batch(std::move(requests));

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kNodes));
  int built = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.node_name << ": " << r.error;
    if (!r.cache_hit) ++built;
    EXPECT_EQ(r.app.get(), results.front().app.get());
  }
  EXPECT_EQ(built, 1);
  EXPECT_EQ(farm.cache().lowerings(), 1u);
  EXPECT_EQ(farm.cache().hits(), static_cast<std::size_t>(kNodes - 1));

  // The shared deployment is node-agnostic and pre-decoded; each result
  // runs on its own node.
  EXPECT_TRUE(results.front().app->node_name.empty());
  ASSERT_NE(results.front().app->decoded, nullptr);
  vm::Workload w = apps::minilulesh_workload(60, 4);
  const auto run = results.back().run(w, 4);
  ASSERT_TRUE(run.ok) << run.error;
}

TEST(BuildFarm, ReconstructsApplicationFromTheImageAlone) {
  const Application app = small_minimd();
  const auto image = build_source_image(app, isa::Arch::X86_64);
  const auto from_image = application_from_source_image(image);
  ASSERT_TRUE(from_image.ok) << from_image.error;
  EXPECT_EQ(from_image.app.name, "minimd");
  EXPECT_EQ(from_image.app.source_tree.size(), app.source_tree.size());
  EXPECT_EQ(from_image.app.script.options.size(), app.script.options.size());

  // A farm deploy (reconstructed app) matches a direct deploy (original
  // app) bit for bit.
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");
  BuildFarm farm(registry);
  const auto options = explicit_selection("AVX_512", "fftw3");
  const auto farmed =
      farm.deploy({vm::node("ault23"), "spcl/minimd:src", options});
  ASSERT_TRUE(farmed.ok) << farmed.error;
  const auto direct =
      deploy_source_container(image, app, vm::node("ault23"), options);
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(farmed.app->image.digest(), direct.image.digest());
}

TEST(BuildFarm, HeterogeneousFleetSharesTranslationUnits) {
  const Application app = small_minimd();
  const auto image = build_source_image(app, isa::Arch::X86_64);
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");

  BuildFarmOptions options;
  options.threads = 4;
  BuildFarm farm(registry, options);

  std::vector<SourceDeployRequest> requests;
  std::size_t independent_tus = 0;
  for (const auto& group : heterogeneous_groups()) {
    const auto plan = plan_source_deploy(image, app, vm::node(group.base_node),
                                         group.options);
    ASSERT_TRUE(plan.ok) << group.base_node << ": " << plan.error;
    independent_tus +=
        plan.configuration.compile_commands(app.source_tree).size();
    for (auto& node : fleet_of(group.base_node, 4)) {
      requests.push_back({std::move(node), "spcl/minimd:src", group.options});
    }
  }
  const auto results = farm.deploy_batch(std::move(requests));
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.node_name << ": "
                                                  << r.error;

  // One whole-program build per distinct (selections, target) group.
  EXPECT_EQ(farm.cache().lowerings(), 4u);
  // TU-level dedup across the groups: the two AVX-512 builds differ only
  // in their FFT library, so every TU that does not mention the FFT
  // macros compiles once and is shared; likewise the AVX2 pair. Strictly
  // fewer compilations than four independent builds.
  EXPECT_LT(farm.tu_compiles(), independent_tus);
  EXPECT_GT(farm.tu_cache_hits(), 0u);

  // Distinct groups do not share deployments; nodes within a group do.
  EXPECT_NE(results[0].app.get(), results[4].app.get());
  EXPECT_EQ(results[4].app.get(), results[7].app.get());
}

TEST(BuildFarm, SelectedMarchClampsExplicitMarchErrors) {
  const Application app = small_minimd();
  const auto image = build_source_image(app, isa::Arch::X86_64);
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");
  BuildFarm farm(registry);

  // Selecting AVX-512 on a Haswell-class node clamps to its ladder
  // instead of building a program that would trap.
  const auto clamped = farm.deploy(
      {vm::node("devbox"), "spcl/minimd:src",
       explicit_selection("AVX_512", "fftpack")});
  ASSERT_TRUE(clamped.ok) << clamped.error;
  EXPECT_EQ(clamped.app->target.visa, isa::VectorIsa::AVX2_256);

  // An explicit march beyond the ladder is the user asking for code the
  // hardware cannot execute: an error, and nothing is cached.
  SourceDeployRequest bad{vm::node("devbox"), "spcl/minimd:src",
                          explicit_selection("AVX2_256", "fftpack")};
  bad.options.march = isa::VectorIsa::AVX_512;
  const auto rejected = farm.deploy(bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("not executable"), std::string::npos);
  EXPECT_EQ(farm.cache().lowerings(), 1u);
}

TEST(BuildFarm, BuildFailuresNameTheFailingTranslationUnit) {
  Application app = small_minimd();
  // Break one module so the on-node build fails mid-way.
  app.source_tree.write("modules/m_00003.c", "double broken( {\n");
  const auto image = build_source_image(app, isa::Arch::X86_64);
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");
  BuildFarm farm(registry);

  const auto result = farm.deploy({vm::node("ault23"), "spcl/minimd:src",
                                   explicit_selection("AVX_512", "fftw3")});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("modules/m_00003.c"), std::string::npos);
  // The failing TU is surfaced in the deployment log, not just the error.
  ASSERT_NE(result.app, nullptr);
  bool logged = false;
  for (const auto& line : result.app->log) {
    if (line.find("modules/m_00003.c") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged) << "log lacks the failing TU name";
  // Failures are never cached.
  EXPECT_EQ(farm.cache().entry_count(), 0u);
}

TEST(BuildFarm, MixedBatchRoutesSourceAndIrThroughOneScheduler) {
  const Application app = small_minimd();
  const auto source_image = build_source_image(app, isa::Arch::X86_64);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto ir_build =
      build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(ir_build.ok) << ir_build.error;

  ShardedRegistry registry;
  registry.push(source_image, "spcl/minimd:src");
  registry.push(ir_build.image, "spcl/minimd:ir");

  BuildFarm farm(registry);
  DeploySchedulerOptions sched_options;
  sched_options.threads = 4;
  DeployScheduler scheduler(registry, farm, sched_options);

  std::vector<MixedDeployRequest> requests;
  for (auto& node : fleet_of("ault23", 3)) {
    MixedDeployRequest r;
    r.node = std::move(node);
    r.image_reference = "spcl/minimd:src";
    r.selections = {{"MD_SIMD", "AVX_512"}, {"MD_FFT", "fftw3"}};
    r.auto_specialize = false;
    requests.push_back(std::move(r));
  }
  for (auto& node : fleet_of("ault23", 3)) {
    MixedDeployRequest r;
    r.node = std::move(node);
    r.image_reference = "spcl/minimd:ir";
    r.selections = {{"MD_SIMD", "AVX_512"}};
    requests.push_back(std::move(r));
  }
  const auto results = scheduler.deploy_batch(std::move(requests));
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  // Each kind went through its own cache, each exactly once.
  EXPECT_EQ(farm.cache().lowerings(), 1u);
  EXPECT_EQ(scheduler.cache().lowerings(), 1u);
  EXPECT_EQ(results[0].app->image.annotations.at(container::kAnnotationKind),
            "deployed-source");
  EXPECT_EQ(results[3].app->image.annotations.at(container::kAnnotationKind),
            "deployed-ir");

  // Both paths run the same physics on the same node.
  vm::Workload w_src = apps::minimd_workload({64, 8, 4, 64});
  vm::Workload w_ir = apps::minimd_workload({64, 8, 4, 64});
  const auto run_src = results[0].run(w_src, 2);
  const auto run_ir = results[3].run(w_ir, 2);
  ASSERT_TRUE(run_src.ok) << run_src.error;
  ASSERT_TRUE(run_ir.ok) << run_ir.error;
  EXPECT_EQ(run_src.ret_f64, run_ir.ret_f64);
}

TEST(BuildFarm, MixedRequestWithoutFarmFailsLoudly) {
  const Application app = apps::make_minilulesh();
  const auto image = build_source_image(app, isa::Arch::X86_64);
  ShardedRegistry registry;
  registry.push(image, "spcl/lulesh:src");
  DeployScheduler scheduler(registry);

  MixedDeployRequest request;
  request.node = vm::node("ault23");
  request.image_reference = "spcl/lulesh:src";
  const auto result = scheduler.deploy(request);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("build farm"), std::string::npos);
}

// ---- Bit-identity stress: cached vs uncached under concurrency -----------
//
// Runs in the `stress` CTest label and under ThreadSanitizer
// (tests/run_tsan.sh): fleets hammer the farm through its pool while the
// tests then prove every cached deployment is byte-identical to an
// independently compiled uncached one, node by node.

/// A cached deployment must equal a direct, uncached one: the same
/// derived image (layers, manifest, digest) and program, and identical
/// run_on results on the request's own node (numerics, modeled cycles,
/// instruction counts).
void expect_matches_direct(const FleetDeployResult& cached,
                           const DeployedApp& direct,
                           const vm::NodeSpec& node) {
  ASSERT_TRUE(cached.ok) << cached.node_name << ": " << cached.error;
  EXPECT_EQ(cached.app->image.digest(), direct.image.digest());
  EXPECT_EQ(cached.app->image.to_json().dump(), direct.image.to_json().dump());
  EXPECT_EQ(cached.app->target.to_string(), direct.target.to_string());
  EXPECT_EQ(cached.app->program.num_modules(), direct.program.num_modules());

  vm::Workload w_cached = apps::minimd_workload({48, 8, 3, 32});
  vm::Workload w_direct = apps::minimd_workload({48, 8, 3, 32});
  const auto r_cached = cached.app->run_on(node, w_cached, 2);
  const auto r_direct = direct.run_on(node, w_direct, 2);
  ASSERT_TRUE(r_cached.ok) << r_cached.error;
  ASSERT_TRUE(r_direct.ok) << r_direct.error;
  EXPECT_EQ(r_cached.ret_f64, r_direct.ret_f64);
  EXPECT_EQ(r_cached.cycles_serial, r_direct.cycles_serial);
  EXPECT_EQ(r_cached.cycles_parallel, r_direct.cycles_parallel);
  EXPECT_EQ(r_cached.instructions, r_direct.instructions);
  EXPECT_EQ(r_cached.elapsed_seconds, r_direct.elapsed_seconds);
}

TEST(BuildFarmStress, ConcurrentDeploysBitIdenticalToUncached) {
  const Application app = small_minimd();
  const auto image = build_source_image(app, isa::Arch::X86_64);
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");

  BuildFarmOptions options;
  options.threads = 8;
  BuildFarm farm(registry, options);

  const auto groups = heterogeneous_groups();
  std::vector<vm::NodeSpec> nodes;
  std::vector<const FarmGroup*> node_group;
  for (const auto& group : groups) {
    for (auto& node : fleet_of(group.base_node, 6)) {
      nodes.push_back(std::move(node));
      node_group.push_back(&group);
    }
  }

  std::vector<std::future<FleetDeployResult>> futures;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    futures.push_back(farm.submit(
        {nodes[i], "spcl/minimd:src", node_group[i]->options}));
  }
  std::vector<FleetDeployResult> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.node_name << ": "
                                                  << r.error;
  EXPECT_EQ(farm.cache().lowerings(), 4u);
  EXPECT_GT(farm.tu_cache_hits(), 0u);

  // Uncached reference per group, compiled without any cache in sight.
  for (const auto& group : groups) {
    const DeployedApp uncached = deploy_source_container(
        image, app, vm::node(group.base_node), group.options);
    ASSERT_TRUE(uncached.ok) << uncached.error;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (node_group[i] == &group) {
        expect_matches_direct(results[i], uncached, nodes[i]);
      }
    }
  }
}

// A fleet listed by model, as a rollout lists it, on pools smaller than
// one model's group: the followers of each group's build join it by
// callback and free their threads. Through the farm's own pool and
// through a mixed scheduler batch's source route, each key builds once,
// the TU counts equal a 1-thread farm's, and every deployment matches a
// direct deploy.
TEST(BuildFarmStress, GroupedFleetOnSmallPoolBuildsEachKeyOnce) {
  const Application app = small_minimd();
  const auto image = build_source_image(app, isa::Arch::X86_64);
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");

  const auto groups = heterogeneous_groups();
  std::vector<SourceDeployRequest> requests;
  std::vector<MixedDeployRequest> mixed;
  std::vector<const FarmGroup*> request_group;
  for (const auto& group : groups) {
    for (auto& node : fleet_of(group.base_node, 3)) {
      MixedDeployRequest routed;
      routed.node = node;
      routed.image_reference = "spcl/minimd:src";
      routed.selections = group.options.selections;
      routed.auto_specialize = group.options.auto_specialize;
      mixed.push_back(std::move(routed));
      requests.push_back({std::move(node), "spcl/minimd:src", group.options});
      request_group.push_back(&group);
    }
  }

  BuildFarmOptions serial_options;
  serial_options.threads = 1;
  BuildFarm serial(registry, serial_options);
  for (const auto& r : serial.deploy_batch(requests)) {
    ASSERT_TRUE(r.ok) << r.node_name << ": " << r.error;
  }

  BuildFarmOptions small_pool;
  small_pool.threads = 2;
  BuildFarm farm(registry, small_pool);
  const auto farm_results = farm.deploy_batch(requests);

  BuildFarm routed_farm(registry, serial_options);
  DeploySchedulerOptions sched_options;
  sched_options.threads = 2;
  DeployScheduler scheduler(registry, routed_farm, sched_options);
  const auto routed_results = scheduler.deploy_batch(std::move(mixed));

  for (const BuildFarm* built : {&farm, &routed_farm}) {
    EXPECT_EQ(built->cache().lowerings(), groups.size());
    EXPECT_EQ(built->tu_compiles(), serial.tu_compiles());
    EXPECT_EQ(built->tu_cache_hits(), serial.tu_cache_hits());
  }
  EXPECT_EQ(scheduler.cache().lowerings(), 0u);

  for (const auto& group : groups) {
    const DeployedApp direct = deploy_source_container(
        image, app, vm::node(group.base_node), group.options);
    ASSERT_TRUE(direct.ok) << direct.error;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (request_group[i] != &group) continue;
      expect_matches_direct(farm_results[i], direct, requests[i].node);
      expect_matches_direct(routed_results[i], direct, requests[i].node);
    }
  }
}

}  // namespace
}  // namespace xaas::service
