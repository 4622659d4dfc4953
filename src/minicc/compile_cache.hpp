// Shared compile-memoization layer.
//
// The IR-container pipeline (src/xaas/ir_pipeline.cpp) and the
// source-container build farm (src/service/build_farm.cpp) both face the
// same redundancy: many (configuration, target) pairs hand the compiler
// near-identical translation units. The memo-key machinery that makes the
// redundancy detectable — macro-relevance scans over a source's include
// closure, effective-define canonicalization, preprocess keys — lives
// here, hoisted out of the IR pipeline so both consumers share one
// implementation.
//
// On top of the key machinery, `CompileCache` is a thread-safe,
// single-flight, content-addressed cache of full per-TU compiles:
// preprocess results memoize by (source, macro-relevant defines, include
// dirs), parses by preprocessed-content hash, and machine modules by
// (source, post-preprocess hash, codegen-relevant flags, TargetSpec) in
// a common::TieredCache with an optional persistent tier.
// Two deployments that disagree on build options but agree on a TU's
// preprocessed text and target share that TU's compiled module.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "common/tiered_cache.hpp"
#include "common/vfs.hpp"
#include "minicc/driver.hpp"
#include "minicc/lower.hpp"
#include "minicc/parser.hpp"

namespace xaas::minicc {

// ---- Macro-relevance machinery (hoisted from the IR pipeline) ------------
//
// A -D flag whose macro name never appears in a source's textual include
// closure cannot change the preprocessed output (the preprocessor has no
// token pasting), so memo keys keep only the *macro-relevant* defines.

/// Owning identifier set with heterogeneous lookup: queries by
/// string_view never allocate (the scans sit in the IR pipeline's
/// N-configs x M-TUs relevance loop), while the storage owns its
/// strings so cached scans outlive any particular build's buffers.
struct IdentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
using IdentSet = std::unordered_set<std::string, IdentHash, std::equal_to<>>;

/// Identifiers mentioned anywhere in a source's include closure.
struct SourceScan {
  /// An #include target failed to resolve in the scan: fall back to
  /// treating every define as relevant (never merges incorrectly).
  bool conservative = false;
  IdentSet idents;

  bool relevant(std::string_view macro_name) const {
    return conservative || idents.find(macro_name) != idents.end();
  }
};

/// Collect every C-identifier-shaped token of `text` into `out`.
void scan_idents(std::string_view text, IdentSet& out);

/// Every #include target in the text, regardless of conditional nesting
/// (an over-approximation of what preprocessing may pull in).
std::vector<std::string> scan_includes(std::string_view text);

/// Scan a source's include closure (resolved exactly like the real
/// preprocessor via resolve_include, so the scan can never diverge).
SourceScan build_scan(const common::Vfs& vfs, const std::string& source,
                      const std::vector<std::string>& include_dirs);

/// Precomputed key material shared by every TU of one (configuration,
/// target): the effective define list (name-sorted, last definition wins,
/// as in PreprocessOptions) and the include-dir suffix.
struct TargetFlagInfo {
  std::vector<std::pair<std::string, std::string>> defines;  // name, spec
  /// Identifiers appearing in the *bodies* of the command-line defines:
  /// a define referenced only through another define's body (-DGRID=BASE
  /// -DBASE=8) never shows up in the source scan, so names in this set
  /// count as referenced too (over-approximates chains — sound, it only
  /// splits memo keys further).
  IdentSet body_idents;
  std::string dirs_suffix;

  bool relevant(const SourceScan& scan, std::string_view name) const {
    return scan.relevant(name) || body_idents.find(name) != body_idents.end();
  }
};

TargetFlagInfo make_flag_info(const CompileFlags& flags);

/// Memo key for one preprocess input: source + macro-relevant defines +
/// include dirs.
std::string preprocess_key(const std::string& source,
                           const TargetFlagInfo& info, const SourceScan& scan);

// ---- TU-level compile cache ----------------------------------------------

/// Everything that determines one TU's compiled machine module. The
/// preprocessed-content hash subsumes defines and include dirs; `openmp`
/// and `opt_level` are the codegen-relevant flags the hash cannot see;
/// the target pins lowering (modules of different targets never link).
struct TuKey {
  std::string source;   // path, because IR embeds the source name
  std::string pp_hash;  // sha256 of the preprocessed text
  bool openmp = false;  // effective -fopenmp (IR generation)
  int opt_level = 2;
  TargetSpec target;

  /// Collision-free composite ('\x1f'-joined, like service::SpecKey).
  std::string to_string() const;

  friend bool operator==(const TuKey&, const TuKey&) = default;
};

struct TuKeyHash {
  std::size_t operator()(const TuKey& key) const {
    std::size_t h = std::hash<std::string>{}(key.pp_hash);
    common::hash_mix(h, std::hash<std::string>{}(key.source));
    common::hash_mix(h, static_cast<std::size_t>(key.openmp));
    common::hash_mix(h, static_cast<std::size_t>(key.opt_level));
    common::hash_mix(h, TargetSpecHash{}(key.target));
    return h;
  }
};

/// One TU's machine-module resolution: the compiled module, or the
/// compile error that deterministically prevents it.
struct CompiledTu {
  bool ok = false;
  CompileError error;
  MachineModule machine;  // meaningful when ok
};

/// The persistent tier under the machine-module level (the serving
/// layer's ArtifactTier implements it).
using TuTier = common::CacheTier<TuKey, CompiledTu>;

struct TuCompileResult {
  bool ok = false;
  CompileError error;
  /// Shared, immutable compiled module; copy it into Program::link.
  std::shared_ptr<const MachineModule> machine;
  std::string pp_hash;
  /// Whether the machine module came from the cache (another deployment
  /// already compiled an identical TU).
  bool tu_cache_hit = false;
  /// Whether this resolution revived the module from the persistent tier
  /// instead of compiling (reported by the single-flight leader only;
  /// later in-memory hits report tu_cache_hit).
  bool disk_hit = false;
};

/// Thread-safe single-flight compile cache. One instance serves one
/// source tree (scan and preprocess keys assume path -> content is
/// stable); the build farm keeps one per source-image digest.
///
/// Entries (including preprocessed text) are retained for the cache's
/// lifetime: the footprint is bounded by the image's configuration
/// space, not by request volume, and the farm drops the whole cache
/// with the image state. Revisit with eviction if images ever carry
/// unbounded option spaces.
class CompileCache {
public:
  CompileCache() = default;
  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  /// Install the telemetry observer (the serving layer points it at its
  /// metrics registry): one event per machine-module resolution.
  /// Preprocess failures resolve no module and emit no event, so
  /// observer-side hit/compile counts stay equal to
  /// tu_hits()/tu_compiles(). NOT thread-safe with respect to concurrent
  /// compile(): set it once, before the cache starts serving.
  void set_observer(common::CacheObserver observer) {
    machines_.set_observer(std::move(observer));
  }

  /// Attach (or detach, with nullptr) the persistent tier consulted on
  /// in-memory misses (memory hit → tier hit → compile). The tier must
  /// outlive the cache. NOT thread-safe with respect to concurrent
  /// compile(): set it once, before the cache starts serving.
  void set_tier(TuTier* tier) { machines_.set_tier(tier); }

  /// Failure-injection hook, consulted by the single-flight leader after
  /// the tier misses, before compiling: a returned string fails that
  /// resolution with the given message, modeling a transient
  /// infrastructure failure (flaky builder, I/O error). Transient
  /// failures are never kept — the next request for the key elects a
  /// fresh leader and recompiles. Deterministic *compile* failures (bad
  /// source) stay cached: retrying those cannot help. minicc stays
  /// service-agnostic; the build farm installs a hook that consults the
  /// serving layer's fault plan. NOT thread-safe with respect to
  /// concurrent compile(): set it once, before serving.
  using FaultHook = std::function<std::optional<std::string>(const TuKey&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Full per-TU pipeline (preprocess -> parse -> irgen -> optimize ->
  /// lower) with every stage memoized. Equal TuKeys return the same
  /// shared MachineModule, bit-identical to an uncached
  /// compile_to_target of the same inputs. Concurrent callers of one key
  /// elect a single compiler; the rest block on its result.
  TuCompileResult compile(const common::Vfs& vfs, const std::string& source,
                          const CompileFlags& flags, const TargetSpec& target);

  // Monotonic statistics since construction.
  /// Preprocessor runs actually performed.
  std::size_t preprocess_runs() const { return preprocess_runs_.load(); }
  /// Machine-module compilations attempted (cache misses, including
  /// injected failures).
  std::size_t tu_compiles() const { return machines_.computes(); }
  /// Compile requests served from the machine-module cache.
  std::size_t tu_hits() const { return machines_.hits(); }

private:
  struct PpEntry {
    bool ok = false;
    std::string error;
    std::string output;
    std::string hash;
  };
  struct ParseEntry {
    ParseResult parsed;
  };

  FaultHook fault_hook_;  // set once before serving

  // Memo levels under the machine-module level; compiles are
  // deterministic, so every result (failures included) is kept.
  common::SingleFlightMap<std::string, TargetFlagInfo> infos_;  // flag list
  common::SingleFlightMap<std::string, SourceScan> scans_;  // source + dirs
  common::SingleFlightMap<std::string, PpEntry> pps_;  // preprocess_key(...)
  common::SingleFlightMap<std::string, ParseEntry> parses_;  // pp hash
  common::TieredCache<TuKey, CompiledTu, TuKeyHash> machines_;

  std::atomic<std::size_t> preprocess_runs_{0};
};

}  // namespace xaas::minicc
