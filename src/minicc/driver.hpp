// High-level compiler driver: flag parsing and the phase pipeline
// (preprocess -> parse -> irgen -> optimize -> lower), mirroring how the
// XaaS pipeline invokes Clang with per-target compile commands (§4.3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/vfs.hpp"
#include "isa/isa.hpp"
#include "minicc/ast.hpp"
#include "minicc/ir.hpp"
#include "minicc/lower.hpp"
#include "minicc/preprocessor.hpp"

namespace xaas::minicc {

/// Parsed compile command flags (the unit of comparison in the IR
/// pipeline's flag-normalization step).
struct CompileFlags {
  std::vector<std::string> defines;       // "NAME" or "NAME=VALUE"
  std::vector<std::string> include_dirs;  // -I
  int opt_level = 2;                      // -O<n>
  bool openmp = false;                    // -fopenmp
  std::optional<isa::VectorIsa> march;    // -m<isa>; empty = generic IR

  /// Parse from command-line style arguments; unknown flags are ignored
  /// (the behavioral approach of §4.2: examine, don't understand).
  static CompileFlags parse_args(const std::vector<std::string>& args);

  std::vector<std::string> to_args() const;

  /// Canonical sorted textual form used for equality comparison across
  /// build configurations.
  std::string canonical() const;

  bool operator==(const CompileFlags& other) const {
    return canonical() == other.canonical();
  }
};

struct CompileError {
  std::string phase;  // "preprocess" | "parse" | "irgen"
  std::string message;
};

struct CompileToIrResult {
  bool ok = false;
  CompileError error;
  ir::Module module;
  std::string preprocessed;
  bool openmp_constructs = false;  // AST-detected OpenMP usage
};

/// Run preprocess+parse+irgen for one translation unit. No
/// target-specific work happens here: the result is portable IR.
CompileToIrResult compile_to_ir(const common::Vfs& vfs,
                                const std::string& path,
                                const CompileFlags& flags);

/// Preprocess only (used by the dedup pipeline for hashing).
PreprocessResult preprocess_file(const common::Vfs& vfs,
                                 const std::string& path,
                                 const CompileFlags& flags);

/// Full ahead-of-time build of one TU: compile to IR and lower for the
/// target in one step (what a traditional native build does).
struct CompileToTargetResult {
  bool ok = false;
  CompileError error;
  MachineModule machine;
};

CompileToTargetResult compile_to_target(const common::Vfs& vfs,
                                        const std::string& path,
                                        const CompileFlags& flags,
                                        const TargetSpec& target);

}  // namespace xaas::minicc
