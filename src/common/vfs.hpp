// In-memory virtual filesystem used for application source trees and
// container layer contents. Paths are '/'-separated, relative, normalized.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace xaas::common {

class Vfs {
public:
  void write(const std::string& path, std::string contents) {
    files_[path] = std::move(contents);
  }

  std::optional<std::string> read(std::string_view path) const {
    const auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }

  /// Pointer to the stored contents (no copy), or nullptr when absent.
  const std::string* find(std::string_view path) const {
    const auto it = files_.find(path);
    return it == files_.end() ? nullptr : &it->second;
  }

  bool exists(std::string_view path) const {
    return files_.find(path) != files_.end();
  }

  void remove(std::string_view path) {
    if (const auto it = files_.find(path); it != files_.end()) files_.erase(it);
  }

  /// Paths matching a glob pattern, sorted.
  std::vector<std::string> glob(std::string_view pattern) const {
    std::vector<std::string> out;
    for (const auto& [path, _] : files_) {
      if (glob_match(pattern, path)) out.push_back(path);
    }
    return out;
  }

  std::size_t size() const { return files_.size(); }

  auto begin() const { return files_.begin(); }
  auto end() const { return files_.end(); }

  /// Merge another VFS on top of this one (later layers win), like
  /// stacking container layers.
  void overlay(const Vfs& other) {
    for (const auto& [path, contents] : other.files_) {
      files_[path] = contents;
    }
  }

private:
  // Transparent comparator: lookups by string_view build no key string
  // (include resolution probes every include dir for every #include).
  std::map<std::string, std::string, std::less<>> files_;
};

}  // namespace xaas::common
