#include "xaas/ir_pipeline.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/json.hpp"
#include "common/sha256.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "minicc/ast.hpp"
#include "minicc/compile_cache.hpp"
#include "minicc/driver.hpp"
#include "minicc/irgen.hpp"
#include "minicc/parser.hpp"
#include "minicc/passes.hpp"
#include "minicc/vectorizer.hpp"

namespace xaas {

using common::Json;

namespace {
struct StageTimer {
  using C = std::chrono::steady_clock;
  C::time_point last = C::now();
  bool on = std::getenv("XAAS_PIPELINE_TRACE") != nullptr;
  void lap(const char* name) {
    if (!on) return;
    auto now = C::now();
    std::fprintf(stderr, "[stage] %-22s %8.3f ms\n", name,
                 std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
  }
};

// Dependency environment for container builds: the pipeline assembles
// dependency layers itself, so every dependency the script can request is
// available at its minimum version (§4.3: "The container is assembled
// from layers that provide the toolchain and dependencies").
buildsys::Environment container_build_env(const buildsys::BuildScript& script,
                                          const std::string& build_dir) {
  buildsys::Environment env;
  env.build_dir = build_dir;
  for (const auto& d : script.directives) {
    if (d.kind != buildsys::Directive::Kind::RequireDependency) continue;
    const std::string version = d.args.size() > 1 ? d.args[1] : "1.0";
    env.dependencies[d.args.at(0)] = version;
  }
  return env;
}

std::string sanitize(const std::string& path) {
  std::string out = common::replace_all(path, "/", "_");
  return common::replace_all(out, ".", "_");
}

/// One (configuration, source) compile that is built to IR.
struct TuInstance {
  std::size_t config_index = 0;
  std::size_t flag_info = 0;            // index into the per-target tables
  const std::string* source = nullptr;  // in its configuration's commands
  std::size_t pp_unit = 0;              // distinct preprocess input
  bool openmp_relevant = false;         // source's closure references _OPENMP
  bool openmp_effective = false;
  std::size_t artifact = 0;             // index into IrContainerBuild::artifacts
};

/// One configuration's compile commands, sorted into per-target flag
/// tables and TU instances.
struct ConfigTus {
  std::vector<minicc::CompileFlags> target_flags;  // one per target
  std::vector<minicc::TargetFlagInfo> flag_infos;  // parallel to target_flags
  /// §6.4 diagnostic, per target: the flags a non-containerized build
  /// would pass, without CPU tuning.
  std::vector<std::string> raw_flags;
  /// Per command: its target's slot and its (target, source) key.
  std::vector<std::size_t> command_target;
  std::vector<std::string> tu_keys;
  std::vector<TuInstance> instances;  // the non-system-dependent commands
};

/// Dense ids for `keys` in order of first appearance: `ids[i]` is the id
/// of keys[i], `firsts[id]` the index of its first occurrence. Hashing and
/// the equality search run on the pool, split by hash value; only the
/// final renumbering walks the keys in order, so ids never depend on the
/// thread count.
struct FirstSeen {
  std::vector<std::size_t> ids;
  std::vector<std::size_t> firsts;
};

FirstSeen number_by_first_seen(common::ThreadPool& pool,
                               const std::vector<std::string>& keys) {
  const std::size_t n = keys.size();
  std::vector<std::size_t> hashes(n);
  pool.parallel_for(
      n,
      [&](std::size_t i) {
        hashes[i] = std::hash<std::string_view>{}(keys[i]);
      },
      256);
  // Equal keys hash alike, so every shard sees whole classes.
  const std::size_t shards = pool.size() * 4;
  std::vector<std::size_t> first_of(n);
  pool.parallel_for(shards, [&](std::size_t shard) {
    std::unordered_map<std::string_view, std::size_t> seen;
    for (std::size_t i = 0; i < n; ++i) {
      if (hashes[i] % shards != shard) continue;
      first_of[i] = seen.try_emplace(keys[i], i).first->second;
    }
  });
  FirstSeen out;
  out.ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (first_of[i] == i) {
      out.ids[i] = out.firsts.size();
      out.firsts.push_back(i);
    } else {
      out.ids[i] = out.ids[first_of[i]];
    }
  }
  return out;
}

// ---- Preprocessing memoization ------------------------------------------
//
// The N-configs x M-TUs loop hands the preprocessor near-identical inputs
// over and over: most configuration-specific defines are never referenced
// by most translation units. The macro-relevance machinery (include-
// closure scans, effective-define canonicalization, preprocess keys) is
// shared with the build farm's per-TU compile cache and lives in
// minicc/compile_cache.{hpp,cpp}. Instances agreeing on
// (source, relevant defines, include dirs) share one preprocess run.

/// One distinct preprocess input and its cached result.
struct PpUnit {
  std::size_t instance = 0;  // first instance with this key: source, flags
  bool ok = false;
  std::string error;
  std::string output;
  std::string hash;
};

/// Parse result cached by preprocessed-content hash: OpenMP detection and
/// IR generation for identical inputs share one AST.
struct ParsedUnit {
  minicc::ParseResult parsed;
  bool openmp_constructs = false;
};

}  // namespace

IrContainerBuild build_ir_container(const Application& app, isa::Arch arch,
                                    const IrBuildOptions& options) {
  IrContainerBuild result;
  DedupStats& stats = result.stats;
  StageTimer timer_;
  // Every stage fans out here; merges that number things walk the
  // instances in order, so the image is the same at any thread count.
  common::ThreadPool pool(options.threads);

  // ---- Generation: one configuration per point combination ------------
  const auto assignments =
      buildsys::expand_configurations(app.script, options.points);
  stats.configurations = static_cast<int>(assignments.size());

  std::vector<buildsys::Configuration> configs(assignments.size());
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    const std::string norm_dir =
        options.containerized_builds ? "/xaas/build"
                                     : "/build/cfg" + std::to_string(i);
    configs[i] = buildsys::configure(app.script, assignments[i],
                                     container_build_env(app.script, norm_dir));
  });
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const buildsys::Configuration& c = configs[i];
    if (!c.ok) {
      result.error = "configuration '" +
                     (c.option_values.empty() ? std::to_string(i) : c.id()) +
                     "' failed: " + c.error;
      return result;
    }
    result.configuration_ids.push_back(c.id());
  }

  timer_.lap("configure");
  // The compile-command database is computed once per configuration and
  // reused for instance collection and manifest assembly below.
  std::vector<std::vector<buildsys::CompileCommand>> commands_per_config(
      configs.size());
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    commands_per_config[i] = configs[i].compile_commands(app.source_tree);
  });

  timer_.lap("compile_commands");
  // Defines derived from the SIMD option belong to the CPU-tuning bucket
  // (like the -m flags), not the raw-incompatibility diagnostic.
  std::vector<std::string> simd_define_prefixes;
  for (const auto& opt : app.script.options) {
    if (opt.is_simd) simd_define_prefixes.push_back("-D" + opt.name + "_");
  }

  // ---- Collect TU instances, one configuration per task -----------------
  //
  // The §6.4 "incompatible raw flags" diagnostic wants the flags a
  // *non*-containerized build would produce (divergent /build/cfg<i>
  // directories). The build dir reaches compile commands in exactly one
  // place — include_build_dir emits "-I<build_dir>/include" — so the
  // divergent variant is derived textually from the containerized
  // expansion instead of running a second `configure` per configuration.
  const std::string norm_build_inc = "-I/xaas/build/include";
  std::vector<ConfigTus> per_config(configs.size());
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    ConfigTus& out = per_config[i];
    // Raw-diagnostic strings and parsed flags are per (config, target):
    // every source in a target shares its argument list.
    std::unordered_map<std::string_view, std::size_t> slot_by_target;
    const std::string divergent_inc =
        "-I/build/cfg" + std::to_string(i) + "/include";
    for (const auto& cmd : commands_per_config[i]) {
      const auto [slot, inserted] =
          slot_by_target.try_emplace(cmd.target, out.target_flags.size());
      if (inserted) {
        std::string raw_no_tuning;
        for (const auto& arg : cmd.args) {
          // CPU tuning flags are tracked in their own §6.4 bucket; the
          // raw incompatibility diagnostic isolates everything else
          // (build-dir include paths being the dominant cause).
          if (common::starts_with(arg, "-m")) continue;
          bool simd_define = false;
          for (const auto& prefix : simd_define_prefixes) {
            if (common::starts_with(arg, prefix)) simd_define = true;
          }
          if (simd_define) continue;
          if (options.containerized_builds && arg == norm_build_inc) {
            raw_no_tuning += divergent_inc;
          } else {
            raw_no_tuning += arg;
          }
          raw_no_tuning += ' ';
        }
        out.raw_flags.push_back(std::move(raw_no_tuning));
        out.target_flags.push_back(minicc::CompileFlags::parse_args(cmd.args));
        out.flag_infos.push_back(minicc::make_flag_info(out.target_flags.back()));
      }
      out.command_target.push_back(slot->second);
      out.tu_keys.push_back(cmd.target + '\x1f' + cmd.source);
      if (app.is_system_dependent(cmd.source)) continue;
      TuInstance inst;
      inst.config_index = i;
      inst.flag_info = slot->second;
      inst.source = &cmd.source;
      out.instances.push_back(inst);
    }
  });

  // Concatenate in configuration order; flag_info becomes global.
  std::vector<TuInstance> instances;
  std::vector<minicc::CompileFlags> target_flags;
  std::vector<minicc::TargetFlagInfo> flag_infos;  // parallel to target_flags
  std::vector<std::size_t> config_first_instance;  // plus an end sentinel
  std::vector<std::string> tu_keys;   // per command: target \x1f source
  std::vector<std::size_t> tu_raw;    // per command: raw-flag string id
  std::unordered_map<std::string, std::size_t> raw_ids;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ConfigTus& part = per_config[i];
    const std::size_t offset = target_flags.size();
    stats.total_tus += static_cast<int>(part.command_target.size());
    stats.system_dependent += static_cast<int>(part.command_target.size() -
                                               part.instances.size());
    std::vector<std::size_t> raw_of_slot;
    for (auto& raw : part.raw_flags) {
      raw_of_slot.push_back(
          raw_ids.try_emplace(std::move(raw), raw_ids.size()).first->second);
    }
    for (const std::size_t slot : part.command_target) {
      tu_raw.push_back(raw_of_slot[slot]);
    }
    std::move(part.tu_keys.begin(), part.tu_keys.end(),
              std::back_inserter(tu_keys));
    std::move(part.target_flags.begin(), part.target_flags.end(),
              std::back_inserter(target_flags));
    std::move(part.flag_infos.begin(), part.flag_infos.end(),
              std::back_inserter(flag_infos));
    config_first_instance.push_back(instances.size());
    for (TuInstance inst : part.instances) {
      inst.flag_info += offset;
      instances.push_back(inst);
    }
  }
  config_first_instance.push_back(instances.size());
  const std::size_t n = instances.size();

  timer_.lap("collect_instances");
  // §6.4 diagnostic: fraction of TUs with incompatible raw flags across
  // configurations (driven by build-dir header paths).
  {
    const FirstSeen tus = number_by_first_seen(pool, tu_keys);
    std::vector<char> incompatible(tus.firsts.size(), 0);
    for (std::size_t c = 0; c < tu_raw.size(); ++c) {
      const std::size_t id = tus.ids[c];
      if (tu_raw[c] != tu_raw[tus.firsts[id]]) incompatible[id] = 1;
    }
    const auto count = std::count(incompatible.begin(), incompatible.end(), 1);
    stats.flag_incompatible_pct =
        tus.firsts.empty()
            ? 0.0
            : 100.0 * static_cast<double>(count) /
                  static_cast<double>(tus.firsts.size());
  }

  timer_.lap("diag");
  // ---- Preprocessing + OpenMP detection (memoized, parallel) -----------
  // Macro-relevance scans, one per (source, include dirs).
  std::vector<std::string> keys(n);
  pool.parallel_for(
      n,
      [&](std::size_t k) {
        keys[k] = *instances[k].source + flag_infos[instances[k].flag_info]
                                             .dirs_suffix;
      },
      64);
  const FirstSeen scan_ids = number_by_first_seen(pool, keys);
  std::vector<minicc::SourceScan> scans(scan_ids.firsts.size());
  pool.parallel_for(scans.size(), [&](std::size_t s) {
    const TuInstance& first = instances[scan_ids.firsts[s]];
    scans[s] = minicc::build_scan(app.source_tree, *first.source,
                                  target_flags[first.flag_info].include_dirs);
  });
  pool.parallel_for(
      n,
      [&](std::size_t k) {
        TuInstance& inst = instances[k];
        const minicc::TargetFlagInfo& info = flag_infos[inst.flag_info];
        const minicc::SourceScan& scan = scans[scan_ids.ids[k]];
        inst.openmp_relevant = info.relevant(scan, "_OPENMP");
        keys[k] = minicc::preprocess_key(*inst.source, info, scan);
      },
      64);
  const FirstSeen unit_ids = number_by_first_seen(pool, keys);
  std::vector<PpUnit> units(unit_ids.firsts.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    units[u].instance = unit_ids.firsts[u];
  }
  for (std::size_t k = 0; k < n; ++k) instances[k].pp_unit = unit_ids.ids[k];

  timer_.lap("scans_keys");
  pool.parallel_for(units.size(), [&](std::size_t idx) {
    PpUnit& unit = units[idx];
    const TuInstance& first = instances[unit.instance];
    auto pp = minicc::preprocess_file(app.source_tree, *first.source,
                                      target_flags[first.flag_info]);
    if (!pp.ok) {
      unit.error = pp.error;
      return;
    }
    unit.ok = true;
    unit.output = std::move(pp.output);
    unit.hash = common::sha256_hex(unit.output);
  });
  timer_.lap("preprocess");
  for (const auto& unit : units) {
    if (!unit.ok) {
      result.error = "preprocessing failed: " +
                     *instances[unit.instance].source + ": " + unit.error;
      return result;
    }
  }

  timer_.lap("pp_errcheck");
  // Parse each distinct preprocessed content once; OpenMP detection and
  // the IR builds below share the AST.
  std::unordered_map<std::string, ParsedUnit> parsed_by_hash;
  std::vector<ParsedUnit*> to_parse;
  if (options.detect_openmp) {
    std::vector<char> wants_parse(units.size(), 0);
    for (const auto& inst : instances) {
      if (target_flags[inst.flag_info].openmp) wants_parse[inst.pp_unit] = 1;
    }
    std::vector<const PpUnit*> to_parse_unit;
    for (std::size_t u = 0; u < units.size(); ++u) {
      if (!wants_parse[u]) continue;
      const auto [it, inserted] = parsed_by_hash.try_emplace(units[u].hash);
      if (inserted) {
        to_parse.push_back(&it->second);
        to_parse_unit.push_back(&units[u]);
      }
    }
    pool.parallel_for(to_parse.size(), [&](std::size_t idx) {
      ParsedUnit& p = *to_parse[idx];
      p.parsed = minicc::parse(to_parse_unit[idx]->output);
      p.openmp_constructs =
          p.parsed.ok && minicc::ast::uses_openmp(p.parsed.tu);
    });
  }

  timer_.lap("detect_parse");
  pool.parallel_for(
      n,
      [&](std::size_t k) {
        TuInstance& inst = instances[k];
        inst.openmp_effective = target_flags[inst.flag_info].openmp;
        if (inst.openmp_effective && options.detect_openmp) {
          inst.openmp_effective =
              parsed_by_hash.at(units[inst.pp_unit].hash).openmp_constructs;
        }
      },
      256);

  stats.openmp_merged = static_cast<int>(
      std::count_if(instances.begin(), instances.end(), [&](const auto& inst) {
        return target_flags[inst.flag_info].openmp && !inst.openmp_effective;
      }));

  timer_.lap("assign_effective");
  // ---- Dedup keys -------------------------------------------------------
  // Canonical flags per (target, effective OpenMP): the syntactic dedup
  // key and the flags each artifact records.
  std::vector<std::array<std::string, 2>> canonical_flags(target_flags.size());
  pool.parallel_for(target_flags.size(), [&](std::size_t f) {
    minicc::CompileFlags key_flags = target_flags[f];
    if (options.delay_vectorization) key_flags.march.reset();
    for (const bool openmp : {false, true}) {
      key_flags.openmp = openmp;
      canonical_flags[f][openmp] = key_flags.canonical();
    }
  });
  pool.parallel_for(
      n,
      [&](std::size_t k) {
        const TuInstance& inst = instances[k];
        const minicc::CompileFlags& flags = target_flags[inst.flag_info];
        std::string& key = keys[k];
        if (options.dedup_preprocessing) {
          // Semantic key: what the compiler actually sees.
          key = *inst.source + "|" + units[inst.pp_unit].hash + "|" +
                (inst.openmp_effective ? "omp" : "noomp") + "|O" +
                std::to_string(flags.opt_level);
          if (!options.delay_vectorization) {
            key += "|" + (flags.march
                              ? std::string(isa::to_string(*flags.march))
                              : "generic");
          }
        } else {
          // Purely syntactic comparison of normalized flags.
          key = *inst.source + "|" +
                canonical_flags[inst.flag_info][inst.openmp_effective];
        }
      },
      64);

  // preproc_distinct: among surplus TU instances (beyond one per source),
  // how many still need their own IR after hashing. Every unit has at
  // least one instance and shares its source and hash, so both distinct
  // counts can be taken over units.
  std::vector<std::string> unit_sources(units.size());
  std::vector<std::string> unit_classes(units.size());
  pool.parallel_for(
      units.size(),
      [&](std::size_t u) {
        unit_sources[u] = *instances[units[u].instance].source;
        unit_classes[u] = unit_sources[u] + '\x1f' + units[u].hash;
      },
      64);
  const std::size_t distinct_sources =
      number_by_first_seen(pool, unit_sources).firsts.size();
  const FirstSeen classes = number_by_first_seen(pool, unit_classes);
  {
    const long long surplus_total = static_cast<long long>(n) -
                                    static_cast<long long>(distinct_sources);
    const long long surplus_unique =
        static_cast<long long>(classes.firsts.size()) -
        static_cast<long long>(distinct_sources);
    stats.preproc_distinct_pct =
        surplus_total > 0 ? 100.0 * static_cast<double>(surplus_unique) /
                                static_cast<double>(surplus_total)
                          : 0.0;
  }

  // tuning_only: among groups of semantically identical TUs (same source,
  // preprocessed hash and effective OpenMP), how many carried different
  // CPU tuning flags (resolved by delaying vectorization) — the paper's
  // "95% of identical targets have different CPU tuning".
  {
    struct TuningGroup {
      int count = 0;
      std::optional<isa::VectorIsa> march;
      bool tuned = false;
    };
    std::vector<TuningGroup> groups(classes.firsts.size() * 2);
    for (const auto& inst : instances) {
      const std::optional<isa::VectorIsa>& march =
          target_flags[inst.flag_info].march;
      TuningGroup& group = groups[classes.ids[inst.pp_unit] * 2 +
                                  (inst.openmp_effective ? 1 : 0)];
      if (group.count++ == 0) {
        group.march = march;
      } else if (march != group.march) {
        group.tuned = true;
      }
    }
    int multi = 0;
    int tuned = 0;
    for (const auto& group : groups) {
      if (group.count < 2) continue;
      ++multi;
      if (group.tuned) ++tuned;
    }
    stats.tuning_only_pct = multi > 0 ? 100.0 * tuned / multi : 0.0;
  }

  timer_.lap("dedup_stats");
  // ---- Build unique IRs (parallel) --------------------------------------
  const FirstSeen artifact_ids = number_by_first_seen(pool, keys);
  const std::vector<std::size_t>& representatives = artifact_ids.firsts;
  result.artifacts.resize(representatives.size());
  pool.parallel_for(representatives.size(), [&](std::size_t a) {
    const TuInstance& inst = instances[representatives[a]];
    const minicc::CompileFlags& flags = target_flags[inst.flag_info];
    IrArtifact& artifact = result.artifacts[a];
    artifact.source = *inst.source;
    artifact.openmp = inst.openmp_effective;
    artifact.path = "ir/" + sanitize(*inst.source) + "_" +
                    units[inst.pp_unit].hash.substr(0, 10) +
                    (inst.openmp_effective ? "_omp" : "") +
                    (!options.delay_vectorization && flags.march
                         ? "_" + std::string(isa::to_string(*flags.march))
                         : "") +
                    ".xir";
    artifact.flags = canonical_flags[inst.flag_info][inst.openmp_effective];
  });
  for (std::size_t k = 0; k < n; ++k) {
    TuInstance& inst = instances[k];
    inst.artifact = artifact_ids.ids[k];
    result.artifacts[inst.artifact].used_by.push_back(
        result.configuration_ids[inst.config_index]);
  }
  stats.unique_irs = static_cast<int>(result.artifacts.size());
  stats.reduction_pct =
      stats.total_tus > 0
          ? 100.0 * (1.0 - static_cast<double>(stats.unique_irs +
                                               stats.system_dependent) /
                               static_cast<double>(stats.total_tus))
          : 0.0;

  timer_.lap("artifact_list");
  // Compile the surviving representatives, reusing the memoized
  // preprocessed text and cached ASTs instead of re-running the front
  // end per artifact (the seed re-preprocessed and re-parsed every one).
  std::vector<std::string> ir_texts(representatives.size());
  std::string compile_error;
  std::mutex error_mutex;
  pool.parallel_for(representatives.size(), [&](std::size_t idx) {
    const TuInstance& inst = instances[representatives[idx]];
    const std::string& source = *inst.source;
    const minicc::CompileFlags& inst_flags = target_flags[inst.flag_info];
    const PpUnit& unit = units[inst.pp_unit];
    minicc::CompileFlags flags = inst_flags;
    flags.openmp = inst.openmp_effective;
    if (options.delay_vectorization) flags.march.reset();

    const auto fail = [&](const std::string& phase, const std::string& msg) {
      std::lock_guard lock(error_mutex);
      if (compile_error.empty()) {
        compile_error = source + " (" + phase + "): " + msg;
      }
    };

    // Locate the preprocessed text for the *effective* flags. Dropping
    // -fopenmp only changes preprocessing when the TU's include closure
    // references _OPENMP; everything else reuses the memoized unit.
    const std::string* pp_text = nullptr;
    const std::string* pp_hash = nullptr;
    minicc::PreprocessResult local_pp;
    std::string local_hash;
    if (flags.openmp == inst_flags.openmp || !inst.openmp_relevant) {
      pp_text = &unit.output;
      pp_hash = &unit.hash;
    } else {
      local_pp = minicc::preprocess_file(app.source_tree, source, flags);
      if (!local_pp.ok) {
        fail("preprocess", local_pp.error);
        return;
      }
      local_hash = common::sha256_hex(local_pp.output);
      pp_text = &local_pp.output;
      pp_hash = &local_hash;
    }

    // Parse: shared AST when OpenMP detection already parsed this text.
    const ParsedUnit* cached = nullptr;
    if (const auto it = parsed_by_hash.find(*pp_hash);
        it != parsed_by_hash.end() && it->second.parsed.ok) {
      cached = &it->second;
    }
    minicc::ParseResult local_parse;
    const minicc::ParseResult* parsed = nullptr;
    if (cached) {
      parsed = &cached->parsed;
    } else {
      local_parse = minicc::parse(*pp_text);
      parsed = &local_parse;
    }
    if (!parsed->ok) {
      fail("parse", parsed->error + " [" + source + "]");
      return;
    }

    minicc::IrGenOptions gen_options;
    gen_options.openmp = flags.openmp;
    gen_options.source_path = source;
    minicc::IrGenResult gen = minicc::generate_ir(parsed->tu, gen_options);
    if (!gen.ok) {
      fail("irgen", gen.error);
      return;
    }
    // Target-independent cleanup only; vectorization and FMA fusion wait
    // for deployment.
    minicc::optimize(gen.module, std::min(flags.opt_level, 1));

    if (!options.delay_vectorization && inst_flags.march) {
      // Ablation mode: premature target-specific optimization at
      // container-build time. The IR is vectorized now and cannot be
      // efficiently re-vectorized at deployment (§4.3).
      minicc::vectorize_module(gen.module, isa::lanes_f64(*inst_flags.march));
    }
    ir_texts[idx] = minicc::ir::print(gen.module);
  });
  timer_.lap("compile");
  if (!compile_error.empty()) {
    result.error = "IR compilation failed: " + compile_error;
    return result;
  }

  timer_.lap("compile_err");
  // ---- Assemble the image ------------------------------------------------
  // Manifest: per configuration, the IR (or source) each TU resolves to,
  // plus the per-config link/lowering parameters.
  std::vector<Json> config_list(configs.size());
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    Json c = Json::object();
    c["id"] = result.configuration_ids[i];
    Json values = Json::object();
    for (const auto& [name, value] : configs[i].option_values) {
      values[name] = value;
    }
    c["options"] = std::move(values);
    bool openmp = false;
    for (const auto& flag : configs[i].global_flags) {
      if (flag == "-fopenmp") openmp = true;
    }
    c["openmp"] = openmp;
    // Record the configuration's SIMD choice by *option value* so that
    // "None" deploys scalar instead of silently upgrading to the node's
    // best ISA.
    std::string march;
    for (const auto& opt : app.script.options) {
      if (!opt.is_simd) continue;
      const auto it = configs[i].option_values.find(opt.name);
      if (it != configs[i].option_values.end()) march = it->second;
    }
    c["march"] = march;

    // The configuration's instances follow its commands in order; a
    // command without one is system-dependent.
    std::size_t next = config_first_instance[i];
    Json units_json = Json::array();
    for (const auto& cmd : commands_per_config[i]) {
      Json unit = Json::object();
      unit["source"] = cmd.source;
      if (next < config_first_instance[i + 1] &&
          instances[next].source == &cmd.source) {
        unit["ir"] = result.artifacts[instances[next++].artifact].path;
      } else {
        unit["system_dependent"] = true;
        unit["flags"] = cmd.args_string();
      }
      units_json.push_back(std::move(unit));
    }
    c["translation_units"] = std::move(units_json);
    config_list[i] = std::move(c);
  });

  // Each layer is filled and content-hashed on its own pool thread.
  const std::function<common::Vfs()> layer_files[] = {
      [] {
        common::Vfs toolchain;
        toolchain.write("opt/toolchain/minicc.json",
                        "{\"compiler\": \"minicc\", \"exports_ir\": true}");
        return toolchain;
      },
      [&] {
        common::Vfs ir_layer;
        for (std::size_t i = 0; i < result.artifacts.size(); ++i) {
          ir_layer.write(result.artifacts[i].path, std::move(ir_texts[i]));
        }
        return ir_layer;
      },
      [&] {
        common::Vfs source_layer;
        for (const auto& [path, contents] : app.source_tree) {
          source_layer.write("app/" + path, contents);
        }
        source_layer.write("app/xbuild.txt", app.build_script_text);
        return source_layer;
      },
      [&] {
        Json manifest = Json::object();
        manifest["application"] = app.name;
        manifest["entry_point"] = app.entry_point;
        Json configurations = Json::array();
        for (auto& c : config_list) configurations.push_back(std::move(c));
        manifest["configurations"] = std::move(configurations);
        common::Vfs manifest_layer;
        manifest_layer.write("xaas/manifest.json", manifest.dump(2));
        return manifest_layer;
      },
  };
  std::vector<container::Layer> layers(std::size(layer_files));
  pool.parallel_for(layers.size(), [&](std::size_t l) {
    layers[l] = container::Layer::from_vfs(layer_files[l]());
  });

  container::ImageBuilder image;
  image.architecture(arch == isa::Arch::X86_64 ? container::kArchLlvmIrAmd64
                                               : container::kArchLlvmIrArm64);
  for (auto& layer : layers) image.add_layer(std::move(layer));
  result.image =
      image.annotation(container::kAnnotationKind, "ir")
          .annotation(container::kAnnotationSpecPoints,
                      app.ground_truth().to_json().dump())
          .build();
  timer_.lap("assemble_image");
  // The ASTs, scans and command lines are hundreds of thousands of small
  // allocations; freed on one thread they cost a fifth of the build.
  pool.parallel_for(to_parse.size(),
                    [&](std::size_t i) { *to_parse[i] = ParsedUnit(); });
  pool.parallel_for(scans.size(),
                    [&](std::size_t i) { scans[i] = minicc::SourceScan(); });
  pool.parallel_for(commands_per_config.size(), [&](std::size_t i) {
    commands_per_config[i] = std::vector<buildsys::CompileCommand>();
  });
  timer_.lap("release");
  result.ok = true;
  return result;
}

}  // namespace xaas
