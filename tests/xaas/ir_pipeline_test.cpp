#include "xaas/ir_pipeline.hpp"

#include <gtest/gtest.h>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "xaas/ir_deploy.hpp"

namespace xaas {
namespace {

IrBuildOptions lulesh_points() {
  IrBuildOptions options;
  options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                    {"LULESH_OPENMP", {"OFF", "ON"}}};
  return options;
}

TEST(IrPipeline, LuleshWorkedExampleTwentyTusFourteenIrs) {
  // The paper's §4.3 walkthrough: LULESH with MPI x OpenMP gives four
  // configurations of five files = 20 TUs; preprocessing keeps all 20
  // distinct on the MPI axis, and AST OpenMP detection merges the files
  // without OpenMP constructs, leaving 14 IRs.
  const Application app = apps::make_minilulesh();
  const auto build = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  ASSERT_TRUE(build.ok) << build.error;
  EXPECT_EQ(build.stats.configurations, 4);
  EXPECT_EQ(build.stats.total_tus, 20);
  EXPECT_EQ(build.stats.unique_irs, 14);
}

TEST(IrPipeline, WithoutOpenmpDetectionLuleshNeedsMoreIrs) {
  const Application app = apps::make_minilulesh();
  IrBuildOptions options = lulesh_points();
  options.detect_openmp = false;
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;
  // Every file now splits on the OpenMP flag: 5 files x 2 MPI x 2 OMP.
  EXPECT_EQ(build.stats.unique_irs, 20);
}

TEST(IrPipeline, ChainedDefinesStayDistinct) {
  // Preprocess memoization regression: a define referenced only through
  // another define's body (-DGRID=BASE with BASE=8 vs BASE=16) never
  // appears in the source text, but still changes the preprocessed
  // output. The memo must not merge the two configurations.
  Application app;
  app.name = "tiny";
  app.entry_point = "f";
  app.source_tree.write("a.c", "double f(double x) { return x * GRID; }\n");
  app.build_script_text =
      "project(tiny)\n"
      "option_multichoice(SIZE \"grid size\" small small big)\n"
      "add_target(t)\n"
      "target_sources(t a.c)\n"
      "add_define(GRID=BASE)\n"
      "if(SIZE STREQUAL small)\n"
      "  add_define(BASE=8)\n"
      "endif()\n"
      "if(SIZE STREQUAL big)\n"
      "  add_define(BASE=16)\n"
      "endif()\n";
  const auto parsed = buildsys::parse_script(app.build_script_text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  app.script = parsed.script;

  IrBuildOptions options;
  options.points = {{"SIZE", {"small", "big"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;
  EXPECT_EQ(build.stats.configurations, 2);
  EXPECT_EQ(build.stats.total_tus, 2);
  // GRID=BASE expands to 8 vs 16: the preprocessed TUs differ, so both
  // IRs must survive deduplication.
  EXPECT_EQ(build.stats.unique_irs, 2);
}

TEST(IrPipeline, HypothesisOneHolds) {
  // T' < sum(T_i): deduplicated IR count strictly below total TUs.
  const Application app = apps::make_minilulesh();
  const auto build = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  ASSERT_TRUE(build.ok);
  EXPECT_LT(build.stats.unique_irs, build.stats.total_tus);
  EXPECT_GT(build.stats.reduction_pct, 0.0);
}

TEST(IrPipeline, ArtifactsRecordSharingAcrossConfigs) {
  const Application app = apps::make_minilulesh();
  const auto build = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  ASSERT_TRUE(build.ok);
  // boundary.c has no MPI-conditional code beyond the header and no
  // OpenMP: its two IRs (MPI on/off) are each shared by two configs.
  int shared = 0;
  for (const auto& artifact : build.artifacts) {
    if (artifact.used_by.size() > 1) ++shared;
  }
  EXPECT_GT(shared, 0);
}

TEST(IrPipeline, MinimdVectorizationFamilySharesAlmostEverything) {
  apps::MinimdOptions app_options;
  app_options.module_count = 60;
  app_options.gpu_module_count = 2;
  const Application app = apps::make_minimd(app_options);

  IrBuildOptions options;
  options.points = {{"MD_SIMD",
                     {"SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;
  EXPECT_EQ(build.stats.configurations, 5);
  // Reduction must be large: only SIMD-width-sensitive files split.
  EXPECT_GT(build.stats.reduction_pct, 55.0);
  // Nearly every semantically identical group differs only in -m tuning.
  EXPECT_GT(build.stats.tuning_only_pct, 80.0);
  // Build-dir include paths make raw flags incompatible nearly everywhere.
  EXPECT_GT(build.stats.flag_incompatible_pct, 80.0);
  EXPECT_LT(build.stats.flag_incompatible_pct, 100.0);  // md_tools target
}

TEST(IrPipeline, DelayingVectorizationEnablesSharing) {
  apps::MinimdOptions app_options;
  app_options.module_count = 20;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);

  IrBuildOptions delayed;
  delayed.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto with_delay = build_ir_container(app, isa::Arch::X86_64, delayed);
  ASSERT_TRUE(with_delay.ok) << with_delay.error;

  IrBuildOptions eager = delayed;
  eager.delay_vectorization = false;
  const auto without_delay = build_ir_container(app, isa::Arch::X86_64, eager);
  ASSERT_TRUE(without_delay.ok) << without_delay.error;

  EXPECT_LT(with_delay.stats.unique_irs, without_delay.stats.unique_irs);
}

TEST(IrPipeline, SystemDependentFilesAreNotCompiledToIr) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions options;
  options.points = {{"MD_MPI", {"OFF", "ON"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  ASSERT_TRUE(build.ok) << build.error;
  EXPECT_GT(build.stats.system_dependent, 0);
  for (const auto& artifact : build.artifacts) {
    EXPECT_NE(artifact.source, "src/mpi_comm.c");
  }
}

TEST(IrPipeline, ImageIsIrArchitectureWithManifest) {
  const Application app = apps::make_minilulesh();
  const auto build = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  ASSERT_TRUE(build.ok);
  EXPECT_EQ(build.image.architecture, container::kArchLlvmIrAmd64);
  const common::Vfs root = build.image.flatten();
  EXPECT_TRUE(root.exists("xaas/manifest.json"));
  EXPECT_TRUE(root.exists("app/xbuild.txt"));
  // IR files present and parseable.
  int ir_files = 0;
  for (const auto& [path, contents] : root) {
    if (common::starts_with(path, "ir/")) {
      ++ir_files;
      EXPECT_TRUE(minicc::ir::parse_ir(contents).ok) << path;
    }
  }
  EXPECT_EQ(ir_files, build.stats.unique_irs);
}

TEST(IrPipeline, ConfigurationIdsExposedByImage) {
  const Application app = apps::make_minilulesh();
  const auto build = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  ASSERT_TRUE(build.ok);
  const auto ids = ir_image_configurations(build.image);
  EXPECT_EQ(ids.size(), 4u);
}

TEST(IrPipeline, DeterministicAcrossRebuilds) {
  const Application app = apps::make_minilulesh();
  const auto a = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  const auto b = build_ir_container(app, isa::Arch::X86_64, lulesh_points());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.image.digest(), b.image.digest());
}

void expect_same_stats(const DedupStats& a, const DedupStats& b) {
  EXPECT_EQ(a.configurations, b.configurations);
  EXPECT_EQ(a.total_tus, b.total_tus);
  EXPECT_EQ(a.unique_irs, b.unique_irs);
  EXPECT_EQ(a.system_dependent, b.system_dependent);
  EXPECT_EQ(a.reduction_pct, b.reduction_pct);
  EXPECT_EQ(a.flag_incompatible_pct, b.flag_incompatible_pct);
  EXPECT_EQ(a.preproc_distinct_pct, b.preproc_distinct_pct);
  EXPECT_EQ(a.tuning_only_pct, b.tuning_only_pct);
  EXPECT_EQ(a.openmp_merged, b.openmp_merged);
}

// Every stage of the build fans out on its pool, and the merges that
// number scans, preprocess units and artifacts walk the instances in
// order: the thread count must change nothing the build returns. The
// pinned digests were recorded before the stages fanned out.
TEST(IrPipelineStress, ParallelBuildIsByteIdentical) {
  apps::MinimdOptions app_options;
  app_options.module_count = 200;
  const Application app = apps::make_minimd(app_options);

  IrBuildOptions fleet;  // the deploy_fleet benchmark's points
  fleet.points = {
      {"MD_SIMD", {"SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"}},
      {"MD_GPU", {"OFF", "CUDA"}}};
  const std::string fleet_digest =
      "sha256:f9c40b55971f9f570de8eefe9e7ec522bfe19da7b84f061b6c278dbcace83d07";
  struct Case {
    const char* name;
    IrBuildOptions options;
    std::string digest;
  };
  std::vector<Case> cases = {{"default", fleet, fleet_digest}};
  cases.push_back({"containerized_builds=false", fleet, fleet_digest});
  cases.back().options.containerized_builds = false;
  cases.push_back({"dedup_preprocessing=false", fleet, fleet_digest});
  cases.back().options.dedup_preprocessing = false;
  cases.push_back(
      {"detect_openmp=false", fleet,
       "sha256:5ae9c6cc7402168536dfa438039ff46a0a8b240602ca8581fc0f2fa191f9ed88"});
  cases.back().options.detect_openmp = false;
  cases.push_back(
      {"delay_vectorization=false", fleet,
       "sha256:b81becb8717f45e70a1511e62334ae82a95d4fe4c09edb82b374fcd9246c85b5"});
  cases.back().options.delay_vectorization = false;
  // MPI puts system-dependent units into the manifest.
  cases.push_back(
      {"MD_MPI", fleet,
       "sha256:e52e254df10161528f43f900ca786294244ad882d8d65aa0c2db6d5aa2b87b74"});
  cases.back().options.points["MD_MPI"] = {"OFF", "ON"};

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    c.options.threads = 1;
    const auto serial = build_ir_container(app, isa::Arch::X86_64, c.options);
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_EQ(serial.image.digest(), c.digest);
    EXPECT_EQ(serial.stats.system_dependent > 0,
              c.options.points.count("MD_MPI") > 0);
    for (const std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE(threads);
      c.options.threads = threads;
      const auto build = build_ir_container(app, isa::Arch::X86_64, c.options);
      ASSERT_TRUE(build.ok) << build.error;
      EXPECT_EQ(build.image.digest(), serial.image.digest());
      EXPECT_EQ(build.configuration_ids, serial.configuration_ids);
      expect_same_stats(build.stats, serial.stats);
      ASSERT_EQ(build.artifacts.size(), serial.artifacts.size());
      for (std::size_t a = 0; a < build.artifacts.size(); ++a) {
        EXPECT_EQ(build.artifacts[a].path, serial.artifacts[a].path);
        EXPECT_EQ(build.artifacts[a].flags, serial.artifacts[a].flags);
        EXPECT_EQ(build.artifacts[a].used_by, serial.artifacts[a].used_by);
      }
    }
  }
}

}  // namespace
}  // namespace xaas
