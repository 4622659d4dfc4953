#include "minicc/compile_cache.hpp"

#include <algorithm>
#include <map>

#include "common/sha256.hpp"
#include "common/strings.hpp"
#include "minicc/irgen.hpp"
#include "minicc/passes.hpp"
#include "minicc/preprocessor.hpp"

namespace xaas::minicc {

void scan_idents(std::string_view text, IdentSet& out) {
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if ((static_cast<unsigned char>(c) | 32u) - 'a' < 26u || c == '_') {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = text[j];
        if (!((static_cast<unsigned char>(d) | 32u) - 'a' < 26u ||
              static_cast<unsigned>(static_cast<unsigned char>(d)) - '0' <
                  10u ||
              d == '_')) {
          break;
        }
        ++j;
      }
      // Heterogeneous probe first: only genuinely new identifiers pay
      // the owning-string construction.
      const std::string_view ident = text.substr(i, j - i);
      if (out.find(ident) == out.end()) out.emplace(ident);
      i = j;
    } else {
      ++i;
    }
  }
}

std::vector<std::string> scan_includes(std::string_view text) {
  std::vector<std::string> out;
  std::string joined_storage;
  if (text.find("\\\n") != std::string_view::npos) {
    joined_storage = common::replace_all(std::string(text), "\\\n", "");
    text = joined_storage;
  }
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view t = common::trim(text.substr(pos, end - pos));
    pos = end + 1;
    if (t.empty() || t[0] != '#') continue;
    t.remove_prefix(1);
    t = common::trim(t);
    if (!common::starts_with(t, "include")) continue;
    t.remove_prefix(7);
    t = common::trim(t);
    if (t.size() < 2) continue;
    const char close = t[0] == '<' ? '>' : (t[0] == '"' ? '"' : '\0');
    if (close == '\0') continue;
    const std::size_t delim = t.find(close, 1);
    if (delim == std::string_view::npos) continue;
    out.emplace_back(t.substr(1, delim - 1));
  }
  return out;
}

SourceScan build_scan(const common::Vfs& vfs, const std::string& source,
                      const std::vector<std::string>& include_dirs) {
  SourceScan scan;
  std::unordered_set<std::string> visited;
  std::vector<std::string> queue{source};
  visited.insert(source);
  while (!queue.empty()) {
    const std::string path = std::move(queue.back());
    queue.pop_back();
    const std::string* content = vfs.find(path);
    if (!content) {
      scan.conservative = true;
      continue;
    }
    scan_idents(*content, scan.idents);
    for (const auto& inc : scan_includes(*content)) {
      std::string resolved;
      // Shared with the preprocessor so the scan can never diverge from
      // real #include resolution.
      if (resolve_include(vfs, inc, include_dirs, &resolved)) {
        if (visited.insert(resolved).second) queue.push_back(resolved);
      } else {
        scan.conservative = true;
      }
    }
  }
  return scan;
}

TargetFlagInfo make_flag_info(const CompileFlags& flags) {
  TargetFlagInfo info;
  std::map<std::string, std::string> effective;
  for (const auto& spec : flags.defines) {
    const auto eq = spec.find('=');
    effective[eq == std::string::npos ? spec : spec.substr(0, eq)] = spec;
  }
  if (flags.openmp) effective["_OPENMP"] = "_OPENMP=202111";
  info.defines.assign(effective.begin(), effective.end());
  for (const auto& [name, spec] : info.defines) {
    const auto eq = spec.find('=');
    if (eq != std::string::npos) {
      scan_idents(std::string_view(spec).substr(eq + 1), info.body_idents);
    }
  }
  info.dirs_suffix += '\x1f';
  for (const auto& dir : flags.include_dirs) {
    info.dirs_suffix += dir;
    info.dirs_suffix += '\x1e';
  }
  return info;
}

std::string preprocess_key(const std::string& source,
                           const TargetFlagInfo& info,
                           const SourceScan& scan) {
  std::string key;
  key.reserve(source.size() + info.dirs_suffix.size() + 32);
  key = source;
  key += '\x1f';
  for (const auto& [name, spec] : info.defines) {
    if (info.relevant(scan, name)) {
      key += spec;
      key += '\x1e';
    }
  }
  key += info.dirs_suffix;
  return key;
}

std::string TuKey::to_string() const {
  std::string out = source;
  out += '\x1f';
  out += pp_hash;
  out += '\x1f';
  out += openmp ? "omp" : "noomp";
  out += '\x1f';
  out += 'O';
  out += std::to_string(opt_level);
  out += '\x1f';
  out += target.to_string();
  return out;
}

TuCompileResult CompileCache::compile(const common::Vfs& vfs,
                                      const std::string& source,
                                      const CompileFlags& flags,
                                      const TargetSpec& target) {
  TuCompileResult result;

  // The info key must preserve flag ORDER: canonical() sorts, but the
  // effective-define resolution is last-definition-wins, so
  // "-DFOO=1 -DFOO=2" and "-DFOO=2 -DFOO=1" are different inputs.
  std::string info_key;
  for (const auto& d : flags.defines) {
    info_key += d;
    info_key += '\x1e';
  }
  info_key += '\x1f';
  for (const auto& dir : flags.include_dirs) {
    info_key += dir;
    info_key += '\x1e';
  }
  if (flags.openmp) info_key += "\x1fomp";
  const auto info = infos_.get_or_compute(info_key, [&] {
    return std::make_shared<const TargetFlagInfo>(make_flag_info(flags));
  });
  const auto scan = scans_.get_or_compute(source + info->dirs_suffix, [&] {
    return std::make_shared<const SourceScan>(
        build_scan(vfs, source, flags.include_dirs));
  });

  const auto pp =
      pps_.get_or_compute(preprocess_key(source, *info, *scan), [&] {
        preprocess_runs_.fetch_add(1);
        auto entry = std::make_shared<PpEntry>();
        PreprocessResult run = preprocess_file(vfs, source, flags);
        entry->ok = run.ok;
        if (run.ok) {
          entry->hash = common::sha256_hex(run.output);
          entry->output = std::move(run.output);
        } else {
          entry->error = run.error;
        }
        return std::shared_ptr<const PpEntry>(std::move(entry));
      });
  if (!pp->ok) {
    result.error = {"preprocess", pp->error};
    return result;
  }
  result.pp_hash = pp->hash;

  TuKey key;
  key.source = source;
  key.pp_hash = pp->hash;
  key.openmp = flags.openmp;
  key.opt_level = flags.opt_level;
  key.target = target;

  using Machines = decltype(machines_);
  common::CacheEvent::Kind how = common::CacheEvent::Kind::Hit;
  const auto tu = machines_.get(
      key,
      [&]() -> Machines::Computed {
        auto entry = std::make_shared<CompiledTu>();
        // Transient-failure injection (flaky builder / I/O): not kept,
        // so the next compile of this key elects a fresh leader and
        // retries.
        if (fault_hook_) {
          if (auto injected = fault_hook_(key)) {
            entry->error = {"build", std::move(*injected)};
            return {std::move(entry), false};
          }
        }
        const auto parsed = parses_.get_or_compute(pp->hash, [&] {
          return std::make_shared<const ParseEntry>(
              ParseEntry{parse(pp->output)});
        });
        if (!parsed->parsed.ok) {
          entry->error = {"parse",
                          parsed->parsed.error + " [" + source + "]"};
          return {std::move(entry)};
        }
        IrGenOptions gen_options;
        gen_options.openmp = flags.openmp;
        gen_options.source_path = source;
        IrGenResult gen = generate_ir(parsed->parsed.tu, gen_options);
        if (!gen.ok) {
          entry->error = {"irgen", gen.error};
          return {std::move(entry)};
        }
        // Target-independent cleanup at the container level, then the
        // target-specific lowering — identical to compile_to_target.
        optimize(gen.module, std::min(flags.opt_level, 1));
        entry->machine = lower(std::move(gen.module), target);
        entry->ok = true;
        return {std::move(entry)};
      },
      &how);
  // A kept failure still reports as the hit it was counted as.
  result.tu_cache_hit = how == common::CacheEvent::Kind::Hit;
  result.disk_hit = how == common::CacheEvent::Kind::TierHit;
  if (!tu->ok) {
    result.error = tu->error;
    return result;
  }
  result.machine = std::shared_ptr<const MachineModule>(tu, &tu->machine);
  result.ok = true;
  return result;
}

}  // namespace xaas::minicc
