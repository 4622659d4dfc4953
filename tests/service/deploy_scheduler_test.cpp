#include "service/deploy_scheduler.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "apps/workloads.hpp"
#include "vm/decoded.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::service {
namespace {

IrContainerBuild build_lulesh_ir() {
  const Application app = apps::make_minilulesh();
  IrBuildOptions options;
  options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                    {"LULESH_OPENMP", {"OFF", "ON"}}};
  return build_ir_container(app, isa::Arch::X86_64, options);
}

/// A homogeneous simulated fleet: clones of a registry node under fresh
/// names (deliberately NOT registered in vm::node()).
std::vector<vm::NodeSpec> homogeneous_fleet(const std::string& base,
                                            int count) {
  return vm::simulated_fleet(vm::node(base), count, base + "-fleet-");
}

IrDeployOptions lulesh_selection() {
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  return options;
}

TEST(DeployScheduler, HomogeneousFleetLowersOnce) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/lulesh:ir");

  DeploySchedulerOptions sched_options;
  sched_options.threads = 4;
  DeployScheduler scheduler(registry, sched_options);

  constexpr int kNodes = 16;
  std::vector<FleetDeployRequest> requests;
  for (auto& node : homogeneous_fleet("ault23", kNodes)) {
    requests.push_back({std::move(node), "spcl/lulesh:ir",
                        lulesh_selection()});
  }
  const auto results = scheduler.deploy_batch(std::move(requests));

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kNodes));
  int lowered = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.node_name << ": " << r.error;
    if (!r.cache_hit) ++lowered;
  }
  // One lowering for the whole fleet; every other node is a cache hit.
  EXPECT_EQ(lowered, 1);
  EXPECT_EQ(scheduler.cache().lowerings(), 1u);
  EXPECT_EQ(scheduler.cache().hits(), static_cast<std::size_t>(kNodes - 1));

  // Every node shares one DeployedApp object and one DecodedProgram. The
  // shared app is node-agnostic (no node name baked in); each result runs
  // on its own node through FleetDeployResult::run.
  for (const auto& r : results) {
    EXPECT_EQ(r.app.get(), results.front().app.get());
  }
  ASSERT_NE(results.front().app->decoded, nullptr);
  EXPECT_TRUE(results.front().app->node_name.empty());
  vm::Workload w = apps::minilulesh_workload(60, 4);
  const auto run = results.back().run(w, 4);
  ASSERT_TRUE(run.ok) << run.error;

  // Calling run() directly on the node-agnostic shared app is an error
  // result, not an exception.
  vm::Workload w2 = apps::minilulesh_workload(20, 2);
  const auto direct = results.front().app->run(w2);
  EXPECT_FALSE(direct.ok);
  EXPECT_NE(direct.error.find("node-agnostic"), std::string::npos);
}

TEST(DeployScheduler, CachedResultsBitIdenticalToUncachedDeploys) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/lulesh:ir");
  DeployScheduler scheduler(registry);

  auto fleet = homogeneous_fleet("ault23", 4);
  std::vector<FleetDeployRequest> requests;
  for (const auto& node : fleet) {
    requests.push_back({node, "spcl/lulesh:ir", lulesh_selection()});
  }
  const auto results = scheduler.deploy_batch(std::move(requests));

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    // Reference: an uncached deploy straight from the image.
    const DeployedApp uncached =
        deploy_ir_container(build.image, fleet[i], lulesh_selection());
    ASSERT_TRUE(uncached.ok) << uncached.error;

    // Same derived image, bit for bit.
    EXPECT_EQ(results[i].app->image.digest(), uncached.image.digest());
    EXPECT_EQ(results[i].app->target.to_string(), uncached.target.to_string());

    // Same program behavior: identical numerics and identical modeled
    // cycles on the same node.
    vm::Workload w_cached = apps::minilulesh_workload(60, 4);
    vm::Workload w_uncached = apps::minilulesh_workload(60, 4);
    const auto r_cached = results[i].app->run_on(fleet[i], w_cached, 4);
    const auto r_uncached = uncached.run_on(fleet[i], w_uncached, 4);
    ASSERT_TRUE(r_cached.ok) << r_cached.error;
    ASSERT_TRUE(r_uncached.ok) << r_uncached.error;
    EXPECT_EQ(r_cached.ret_f64, r_uncached.ret_f64);
    EXPECT_EQ(r_cached.cycles_serial, r_uncached.cycles_serial);
    EXPECT_EQ(r_cached.cycles_parallel, r_uncached.cycles_parallel);
    EXPECT_EQ(r_cached.instructions, r_uncached.instructions);
    EXPECT_EQ(r_cached.elapsed_seconds, r_uncached.elapsed_seconds);
  }
}

TEST(DeployScheduler, HeterogeneousTargetsLowerPerTarget) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/lulesh:ir");
  DeployScheduler scheduler(registry);

  // Two microarchitectures: Skylake-AVX512 and Haswell-class (AVX2).
  std::vector<FleetDeployRequest> requests;
  for (auto& node : homogeneous_fleet("ault23", 3)) {
    requests.push_back({std::move(node), "spcl/lulesh:ir",
                        lulesh_selection()});
  }
  for (auto& node : homogeneous_fleet("devbox", 3)) {
    requests.push_back({std::move(node), "spcl/lulesh:ir",
                        lulesh_selection()});
  }
  const auto results = scheduler.deploy_batch(std::move(requests));
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  // One lowering per distinct resolved target, not per node.
  EXPECT_EQ(scheduler.cache().lowerings(), 2u);
  EXPECT_NE(results[0].app->target.visa, results[3].app->target.visa);
  EXPECT_NE(results[0].app.get(), results[3].app.get());
  EXPECT_EQ(results[3].app.get(), results[5].app.get());
}

TEST(DeployScheduler, DistinctSelectionsAreDistinctCacheEntries) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/lulesh:ir");
  DeployScheduler scheduler(registry);

  IrDeployOptions no_omp;
  no_omp.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "OFF"}};

  const auto a = scheduler.deploy({vm::node("ault23"), "spcl/lulesh:ir",
                                   lulesh_selection()});
  const auto b = scheduler.deploy({vm::node("ault23"), "spcl/lulesh:ir",
                                   no_omp});
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(scheduler.cache().lowerings(), 2u);
  EXPECT_NE(a.app->image.digest(), b.app->image.digest());
}

TEST(DeployScheduler, ErrorsPropagateAndAreNotCached) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/lulesh:ir");
  DeployScheduler scheduler(registry);

  // Unknown image reference.
  const auto missing = scheduler.deploy(
      {vm::node("ault23"), "spcl/unknown:tag", lulesh_selection()});
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("not found"), std::string::npos);

  // Ambiguous selection is a plan error before any lowering.
  IrDeployOptions ambiguous;
  ambiguous.selections = {{"LULESH_MPI", "OFF"}};
  const auto amb = scheduler.deploy(
      {vm::node("ault23"), "spcl/lulesh:ir", ambiguous});
  EXPECT_FALSE(amb.ok);
  EXPECT_NE(amb.error.find("ambiguous"), std::string::npos);
  EXPECT_EQ(scheduler.cache().lowerings(), 0u);

  // Explicit march beyond the node's ladder fails the plan too.
  FleetDeployRequest bad_march{vm::node("devbox"), "spcl/lulesh:ir",
                               lulesh_selection()};
  bad_march.options.march = isa::VectorIsa::AVX_512;
  const auto bm = scheduler.deploy(bad_march);
  EXPECT_FALSE(bm.ok);
  EXPECT_NE(bm.error.find("not executable"), std::string::npos);
}

// The specialization cache under concurrent submission: all requests for
// one key race through the single-flight gate; exactly one deploys.
TEST(DeploySchedulerStress, ConcurrentSubmitSingleLowering) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/minimd:ir");
  DeploySchedulerOptions sched_options;
  sched_options.threads = 8;
  DeployScheduler scheduler(registry, sched_options);

  IrDeployOptions selection;
  selection.selections = {{"MD_SIMD", "AVX_512"}};

  std::vector<std::future<FleetDeployResult>> futures;
  for (auto& node : homogeneous_fleet("ault01", 24)) {
    futures.push_back(
        scheduler.submit({std::move(node), "spcl/minimd:ir", selection}));
  }
  int ok = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    if (r.ok) ++ok;
  }
  EXPECT_EQ(ok, 24);
  EXPECT_EQ(scheduler.cache().lowerings(), 1u);
  EXPECT_EQ(scheduler.cache().entry_count(), 1u);
}

// A fleet listed by model, as a rollout lists it, on a pool smaller than
// one model's group: the followers of each lowering join it by callback
// and free their threads, so the groups lower side by side. Each
// distinct key lowers once, and every deployment matches a direct
// deploy.
TEST(DeploySchedulerStress, GroupedFleetOnSmallPoolLowersEachKeyOnce) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX2_256", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  ShardedRegistry registry;
  registry.push(build.image, "spcl/minimd:ir");
  DeploySchedulerOptions sched_options;
  sched_options.threads = 2;
  DeployScheduler scheduler(registry, sched_options);

  const std::vector<std::pair<std::string, std::string>> models = {
      {"ault23", "AVX_512"},
      {"aurora", "AVX_512"},
      {"ault25", "AVX2_256"},
      {"devbox", "AVX2_256"}};
  std::set<std::string> keys;
  std::vector<FleetDeployRequest> requests;
  for (const auto& [model, simd] : models) {
    IrDeployOptions selection;
    selection.selections = {{"MD_SIMD", simd}};
    const IrDeployPlan plan =
        plan_ir_deploy(build.image, vm::node(model), selection);
    ASSERT_TRUE(plan.ok) << plan.error;
    keys.insert(simd + "|" + plan.target.to_string());
    for (auto& node : homogeneous_fleet(model, 3)) {
      requests.push_back({std::move(node), "spcl/minimd:ir", selection});
    }
  }
  const auto results = scheduler.deploy_batch(requests);
  EXPECT_EQ(scheduler.cache().lowerings(), keys.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].node_name << ": "
                               << results[i].error;
    const DeployedApp direct = deploy_ir_container(
        build.image, requests[i].node, requests[i].options);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(results[i].app->image.digest(), direct.image.digest());
    EXPECT_EQ(results[i].app->target.to_string(), direct.target.to_string());
    vm::Workload w_cached = apps::minimd_workload({48, 8, 3, 32});
    vm::Workload w_direct = apps::minimd_workload({48, 8, 3, 32});
    const auto r_cached = results[i].run(w_cached, 2);
    const auto r_direct = direct.run_on(requests[i].node, w_direct, 2);
    ASSERT_TRUE(r_cached.ok) << r_cached.error;
    ASSERT_TRUE(r_direct.ok) << r_direct.error;
    EXPECT_EQ(r_cached.ret_f64, r_direct.ret_f64);
    EXPECT_EQ(r_cached.cycles_serial, r_direct.cycles_serial);
    EXPECT_EQ(r_cached.cycles_parallel, r_direct.cycles_parallel);
    EXPECT_EQ(r_cached.instructions, r_direct.instructions);
    EXPECT_EQ(r_cached.elapsed_seconds, r_direct.elapsed_seconds);
  }
}

}  // namespace
}  // namespace xaas::service
