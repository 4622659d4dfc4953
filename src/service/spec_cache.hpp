// Specialization cache (§4.3/§5.2): a fleet of identical
// microarchitectures pulling the same IR container must lower it once,
// not once per node. Entries are keyed by the tuple that fully determines
// a deployment — (IR image digest, canonicalized selections, resolved
// TargetSpec) — established by xaas::plan_ir_deploy: equal keys produce
// bit-identical deployed images and programs, so the cached DeployedApp
// (image + linked program + DecodedProgram) is shared by every requester.
//
// The cache is a common::TieredCache: lock-free hits, one elected
// deployer per cold key, and an optional persistent tier (an
// ArtifactTier, service/distribution.hpp) consulted by that deployer
// only, so misses == lowerings.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/hashing.hpp"
#include "common/tiered_cache.hpp"
#include "minicc/lower.hpp"
#include "xaas/source_container.hpp"

namespace xaas::service {

/// Cache key for one specialization. `digest` is the IR image content
/// digest; `selections` the canonical selection string
/// (common::canonical_selections); `target` the resolved (clamped)
/// lowering target.
struct SpecKey {
  std::string digest;
  std::string selections;
  minicc::TargetSpec target;

  /// Collision-free composite string (components joined with '\x1f').
  std::string to_string() const;

  friend bool operator==(const SpecKey&, const SpecKey&) = default;
};

/// Field-wise hash so the lock-free read tier probes by SpecKey directly
/// — the hot (hit) path never materializes the composite string.
struct SpecKeyHash {
  std::size_t operator()(const SpecKey& key) const {
    std::size_t h = std::hash<std::string>{}(key.digest);
    common::hash_mix(h, std::hash<std::string>{}(key.selections));
    common::hash_mix(h, minicc::TargetSpecHash{}(key.target));
    return h;
  }
};

/// Whole-deployment cache (memory hit → tier hit → deploy). Only ok
/// deployments are kept, so a failed lowering never poisons its key.
/// Typically owned by a DeployScheduler or BuildFarm; see TieredCache
/// for thread-safety and ownership.
class SpecializationCache
    : public common::TieredCache<SpecKey, DeployedApp, SpecKeyHash> {
public:
  /// The cached deployment for `key`, or `deploy()` (returning
  /// shared_ptr<const DeployedApp>) run once across all concurrent
  /// callers. `was_hit`, when non-null, reports whether this caller paid
  /// no lowering (memory or tier hit). Waiters on a failed deployment
  /// receive it too, with was_hit set.
  template <typename Deploy>
  std::shared_ptr<const DeployedApp> get_or_deploy(const SpecKey& key,
                                                   Deploy&& deploy,
                                                   bool* was_hit = nullptr) {
    common::CacheEvent::Kind how = common::CacheEvent::Kind::Hit;
    auto app = get(key, [&] { return kept_if_ok(deploy); }, &how);
    if (was_hit) *was_hit = how != common::CacheEvent::Kind::Computed;
    return app;
  }

  /// get_or_deploy for a caller that must not wait on another caller's
  /// deployment (see TieredCache::get_then): `done(app, error, was_hit)`
  /// receives what get_or_deploy would return, throw and report, either
  /// before this returns or, for a key in flight, on the deployer's
  /// thread once it has published. `done` must not throw.
  template <typename Deploy, typename Done>
  void get_or_deploy_then(const SpecKey& key, Deploy&& deploy, Done done) {
    get_then(key, [&] { return kept_if_ok(deploy); },
             [done = std::move(done)](std::shared_ptr<const DeployedApp> app,
                                      std::exception_ptr error,
                                      common::CacheEvent::Kind how) mutable {
               done(std::move(app), error,
                    how != common::CacheEvent::Kind::Computed);
             });
  }

  /// Deployer invocations == lowerings actually performed.
  std::size_t lowerings() const { return computes(); }
  /// Deployments revived from the tier (no lowering paid).
  std::size_t disk_hits() const { return tier_hits(); }

private:
  // The keep rule: only ok deployments stay cached.
  template <typename Deploy>
  static Computed kept_if_ok(Deploy& deploy) {
    std::shared_ptr<const DeployedApp> deployed = deploy();
    const bool ok = deployed && deployed->ok;
    return {std::move(deployed), ok};
  }
};

}  // namespace xaas::service
