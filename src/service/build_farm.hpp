// Source-container build farm (§4.1 at fleet scale): many heterogeneous
// nodes pull one source image and build on-system after discovery →
// intersection → selection. Rebuilding per node is the expensive half of
// the XaaS story, and almost all of it is redundant — so the farm caches
// at TWO granularities:
//
//  - whole deployments, single-flight, keyed by (source image digest,
//    canonical resolved option values, resolved TargetSpec) — a fleet of
//    one microarchitecture builds once (the SpecializationCache reused
//    from the IR path);
//  - individual translation units, keyed by (source, post-preprocess
//    content hash, codegen-relevant flags, TargetSpec) in a per-image
//    minicc::CompileCache — two *different* whole-program builds (say,
//    MKL-FFT on Sapphire Rapids and FFTW on Skylake-AVX512) that agree
//    on a TU's preprocessed text and target share that TU's compiled
//    module instead of compiling it twice.
//
// Applications are reconstructed from the image itself (source tree +
// xbuild script travel in the layers), so a farm needs only a registry
// reference per request, exactly like the IR scheduler.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "minicc/compile_cache.hpp"
#include "service/artifact_store.hpp"
#include "service/deploy_scheduler.hpp"
#include "service/sharded_registry.hpp"
#include "service/spec_cache.hpp"

namespace xaas::service {

struct SourceDeployRequest {
  vm::NodeSpec node;
  std::string image_reference;  // tag or "sha256:..." digest
  SourceDeployOptions options;
};

struct BuildFarmOptions {
  /// Worker threads for build fan-out (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Persistent tier: when non-null, whole deployments and compiled TUs
  /// are persisted to (and revived from) this store, so a fresh farm
  /// pointed at a populated directory warm-starts with zero compiles.
  /// Borrowed — the store must outlive the farm.
  ArtifactStore* artifact_store = nullptr;
  /// Remote-registry level under the disk tier: when non-null, a cache
  /// miss (whole deployment or individual TU) first tries to pull the
  /// blob from ring peers before building. The peer must front the same
  /// store as `artifact_store`. Borrowed.
  DistributionPeer* distribution = nullptr;
};

/// Source-container build farm (the §4.1 path at fleet scale).
///
/// Thread-safety: submit(), deploy(), deploy_batch(), and the stats
/// accessors are safe from any thread; deploy() is additionally safe to
/// call from another scheduler's worker (the farm contributes caches,
/// not its pool). set_tu_observer() must be called before the farm
/// starts serving (earlier-created per-image caches keep running
/// unobserved).
/// Ownership: borrows the ShardedRegistry (must outlive the farm); owns
/// its whole-deployment SpecializationCache, per-image reconstructed
/// Applications and TU CompileCaches, and its ThreadPool. Deployed apps
/// are handed out as shared_ptr<const DeployedApp>.
class BuildFarm {
public:
  explicit BuildFarm(ShardedRegistry& registry, BuildFarmOptions options = {});

  BuildFarm(const BuildFarm&) = delete;
  BuildFarm& operator=(const BuildFarm&) = delete;

  /// Asynchronously build-deploy one request on the pool.
  std::future<FleetDeployResult> submit(SourceDeployRequest request);

  /// Deploy a batch, fanning out over the pool; results are returned in
  /// request order after all complete.
  std::vector<FleetDeployResult> deploy_batch(
      std::vector<SourceDeployRequest> requests);

  /// Synchronous single deploy (the pool is bypassed; the caches are
  /// not). Safe to call from another scheduler's worker thread.
  FleetDeployResult deploy(const SourceDeployRequest& request);

  /// Whole-deployment cache (hits/misses/lowerings = full builds).
  const SpecializationCache& cache() const { return cache_; }
  SpecializationCache& cache() { return cache_; }

  /// Telemetry observer applied to every per-image TU compile cache the
  /// farm creates (the Gateway points it at its metrics registry). Set it
  /// before the farm starts serving: caches created earlier keep running
  /// unobserved.
  void set_tu_observer(common::CacheObserver observer);

  // TU-level statistics aggregated over every per-image compile cache.
  /// Translation-unit compilations actually performed.
  std::size_t tu_compiles() const;
  /// TU compile requests served from the cache.
  std::size_t tu_cache_hits() const;
  /// TU modules revived from the persistent tier instead of compiling.
  std::size_t tu_disk_hits() const;

private:
  /// Per-source-image-digest state: the reconstructed application and the
  /// TU compile cache bound to its source tree, both built once.
  struct ImageState {
    std::shared_ptr<const Application> app;  // null when reconstruction failed
    std::string app_error;
    std::shared_ptr<minicc::CompileCache> tu_cache;
  };

  std::shared_ptr<const ImageState> state_for(const std::string& digest,
                                              const container::Image& image);

  ShardedRegistry& registry_;
  BuildFarmOptions options_;
  SpecializationCache cache_;
  // ArtifactTiers (null without a store): installed on cache_ and on
  // every per-image TU cache the farm creates.
  std::unique_ptr<SpecializationCache::Tier> spec_tier_;
  std::unique_ptr<minicc::TuTier> tu_tier_;

  mutable std::mutex states_mutex_;
  std::map<std::string, std::shared_ptr<const ImageState>> states_;
  common::CacheObserver tu_observer_;  // guarded by states_mutex_

  // Declared last, destroyed first: ~ThreadPool drains queued build
  // tasks, which still use cache_ and states_ above.
  common::ThreadPool pool_;
};

}  // namespace xaas::service
