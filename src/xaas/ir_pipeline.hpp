// IR container build pipeline (Fig. 7, §4.3): generate every build
// configuration, compare compile commands behaviorally, deduplicate
// translation units in stages —
//   Generation:     one configuration per specialization-point combination,
//                   built in a containerized environment so the build
//                   directory path never differs (flag normalization);
//   Preprocessing:  preprocess and hash each TU; identical hashes merge;
//   OpenMP:         TUs differing only in -fopenmp merge when an AST pass
//                   finds no OpenMP construct in the file;
//   Vectorization:  -m<isa> tuning flags are stripped and deferred to
//                   deployment (LLVM-style IR-level vectorization);
// then compile the surviving unique TUs to IR and pack the image.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "buildsys/configure.hpp"
#include "container/image.hpp"
#include "isa/isa.hpp"
#include "xaas/application.hpp"

namespace xaas {

struct IrBuildOptions {
  /// Specialization points to expand (option name -> values). The
  /// cartesian product defines the configuration set.
  std::map<std::string, std::vector<std::string>> points;

  // Pipeline stages — each can be disabled for the §6.4 / ablation
  // breakdowns.
  bool containerized_builds = true;   // normalize build-dir paths
  bool dedup_preprocessing = true;    // preprocess-hash merge
  bool detect_openmp = true;          // AST OpenMP-construct merge
  bool delay_vectorization = true;    // strip -m flags, vectorize at deploy

  /// Worker threads for every stage of the build (0 = hardware). The
  /// result is the same at any count.
  std::size_t threads = 0;
};

/// §6.4-style reduction statistics.
struct DedupStats {
  int configurations = 0;
  int total_tus = 0;        // sum over configurations
  int unique_irs = 0;       // IR files actually built
  int system_dependent = 0; // TUs shipped as source (Definition 2)
  double reduction_pct = 0.0;

  /// Before build-dir normalization, the fraction of TUs whose raw
  /// compile flags differ across configurations (paper: 96%).
  double flag_incompatible_pct = 0.0;
  /// Among TUs with config-dependent defines, the fraction whose
  /// preprocessed hash actually differs (paper: 14.3%).
  double preproc_distinct_pct = 0.0;
  /// Fraction of otherwise-identical TU pairs that differed only in CPU
  /// tuning flags, resolved by the vectorization stage (paper: 95%).
  double tuning_only_pct = 0.0;
  /// TUs merged because -fopenmp had no effect (no OpenMP constructs).
  int openmp_merged = 0;
};

/// One unique IR artifact and which (config, target, source) tuples it
/// serves.
struct IrArtifact {
  std::string path;          // path of the IR file inside the image
  std::string source;        // originating source file
  std::string flags;         // canonical flags used to produce it
  bool openmp = false;
  std::vector<std::string> used_by;  // configuration ids
};

struct IrContainerBuild {
  bool ok = false;
  std::string error;

  container::Image image;
  DedupStats stats;
  std::vector<IrArtifact> artifacts;
  std::vector<std::string> configuration_ids;
};

IrContainerBuild build_ir_container(const Application& app, isa::Arch arch,
                                    const IrBuildOptions& options);

}  // namespace xaas
