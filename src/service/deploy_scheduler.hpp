// Fleet deployment scheduler: fans deploy_ir_container out over a
// ThreadPool for batches of (node, image, selection) requests, with a
// SpecializationCache in front so a fleet of identical microarchitectures
// lowers once and shares the deployed image and its DecodedProgram.
//
// This is the serving layer the paper's registry-of-IR-containers vision
// implies (§4.3/§5.2): a request names an image by tag or digest in a
// ShardedRegistry plus the node it should be specialized for; the
// scheduler resolves the deployment plan (configuration + clamped
// target), consults the cache, and only cache-missing specializations
// pay the lowering.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "service/artifact_store.hpp"
#include "service/reliability.hpp"
#include "service/sharded_registry.hpp"
#include "service/spec_cache.hpp"
#include "vm/node.hpp"
#include "xaas/ir_deploy.hpp"

namespace xaas::service {

class BuildFarm;
class DistributionPeer;

struct FleetDeployRequest {
  vm::NodeSpec node;
  std::string image_reference;  // tag or "sha256:..." digest
  IrDeployOptions options;
};

/// Kind-agnostic deployment request: the scheduler inspects the image's
/// org.xaas.container-kind annotation and routes to the IR path (this
/// scheduler's specialization cache) or the source path (an attached
/// BuildFarm). One batch may mix source and IR images freely.
struct MixedDeployRequest {
  vm::NodeSpec node;
  std::string image_reference;
  std::map<std::string, std::string> selections;
  std::optional<isa::VectorIsa> march;
  int opt_level = 2;
  /// Source path only: apply the recommendation policy for unselected
  /// points (ignored for IR images, whose configurations are baked in).
  bool auto_specialize = true;
};

struct FleetDeployResult {
  bool ok = false;
  std::string error;
  /// Machine-readable failure classification (Ok on success): NotFound
  /// for unknown references, DeployFailed for everything else.
  ErrorCode code = ErrorCode::Ok;
  /// Whether a failure is plausibly transient — the elected deployer (a
  /// build, a lowering, infrastructure under it) failed, so a retry may
  /// succeed; failed entries are never cached (SpecializationCache keeps
  /// only ok deployments), making retries meaningful. Plan/manifest/reconstruction failures are
  /// deterministic and reported non-transient.
  bool transient = false;

  std::string node_name;
  /// The node this request was deployed for (run() executes on it).
  vm::NodeSpec node;
  std::string configuration;  // selected configuration id
  /// Whether this node reused a cached specialization instead of lowering.
  bool cache_hit = false;
  /// The shared deployment (image + program + decoded program). Multiple
  /// results of one fleet point at the same object, so the app itself is
  /// node-agnostic (its node_name is cleared); always execute through
  /// run() here or app->run_on(node, ...), never app->run().
  std::shared_ptr<const DeployedApp> app;

  /// Execute a workload on this request's node via the shared program.
  vm::RunResult run(vm::Workload& workload, int threads = 1) const;
};

/// Shared async plumbing for the deploy services (scheduler and build
/// farm): wrap a synchronous deploy call as a pool task with exception
/// propagation, and drain a batch of futures in request order.
namespace detail {

template <typename Fn>
std::future<FleetDeployResult> enqueue_deploy(common::ThreadPool& pool,
                                              Fn deploy_fn) {
  auto promise = std::make_shared<std::promise<FleetDeployResult>>();
  auto future = promise->get_future();
  pool.submit([promise, deploy_fn = std::move(deploy_fn)]() mutable {
    try {
      promise->set_value(deploy_fn());
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

inline std::vector<FleetDeployResult> collect_deploys(
    std::vector<std::future<FleetDeployResult>> futures) {
  std::vector<FleetDeployResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

}  // namespace detail

struct DeploySchedulerOptions {
  /// Worker threads for deploy fan-out (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Persistent tier: when non-null, lowered specializations persist to
  /// (and revive from) this store across scheduler lifetimes. Borrowed —
  /// the store must outlive the scheduler.
  ArtifactStore* artifact_store = nullptr;
  /// Remote-registry level under the disk tier: when non-null, a cache
  /// miss first tries to pull the blob from ring peers before falling
  /// back to a build (the single-flight leader does the one fetch). The
  /// peer must front the same store as `artifact_store`. Borrowed.
  DistributionPeer* distribution = nullptr;
};

/// Fleet deployment scheduler (IR path + mixed-kind routing).
///
/// Thread-safety: submit(), deploy(), and deploy_batch() are safe from
/// any thread — the specialization cache and the per-digest manifest
/// memo carry their own locks, and the worker pool serializes nothing
/// beyond them. attach_build_farm() is not synchronized: attach before
/// the scheduler starts serving.
/// Ownership: borrows the ShardedRegistry (and the BuildFarm, when
/// attached) — both must outlive the scheduler; owns its
/// SpecializationCache and ThreadPool. Deployed apps are handed out as
/// shared_ptr<const DeployedApp> that outlive the scheduler.
class DeployScheduler {
public:
  explicit DeployScheduler(ShardedRegistry& registry,
                           DeploySchedulerOptions options = {});
  /// With a build farm attached, mixed batches can route source images
  /// too (the farm's caches are used; its pool is not — this scheduler's
  /// pool does the fan-out).
  DeployScheduler(ShardedRegistry& registry, BuildFarm& farm,
                  DeploySchedulerOptions options = {});

  DeployScheduler(const DeployScheduler&) = delete;
  DeployScheduler& operator=(const DeployScheduler&) = delete;

  /// Asynchronously deploy one request on the pool.
  std::future<FleetDeployResult> submit(FleetDeployRequest request);

  /// Deploy a batch, fanning out over the pool; results are returned in
  /// request order after all complete.
  std::vector<FleetDeployResult> deploy_batch(
      std::vector<FleetDeployRequest> requests);

  /// Synchronous single deploy (the pool is bypassed; the cache is not).
  FleetDeployResult deploy(const FleetDeployRequest& request);

  /// Route one request by the image's container-kind annotation:
  /// "source" → the attached BuildFarm, anything else → the IR path.
  FleetDeployResult deploy(const MixedDeployRequest& request);
  std::future<FleetDeployResult> submit(MixedDeployRequest request);
  std::vector<FleetDeployResult> deploy_batch(
      std::vector<MixedDeployRequest> requests);

  /// Attach (or replace) the build farm used for source-kind requests.
  void attach_build_farm(BuildFarm& farm) { farm_ = &farm; }

  const SpecializationCache& cache() const { return cache_; }
  SpecializationCache& cache() { return cache_; }

private:
  /// Parsed manifest for `digest`, cached so repeated requests (every
  /// cache hit of a fleet) skip the image flatten + JSON parse.
  std::shared_ptr<const IrImageManifest> manifest_for(
      const std::string& digest, const container::Image& image);

  ShardedRegistry& registry_;
  DeploySchedulerOptions options_;
  SpecializationCache cache_;
  // ArtifactTier installed on cache_ (null without a store).
  std::unique_ptr<SpecializationCache::Tier> spec_tier_;
  BuildFarm* farm_ = nullptr;  // source-kind routing; may be null

  std::mutex manifests_mutex_;
  std::map<std::string, std::shared_ptr<const IrImageManifest>> manifests_;

  // Declared last, destroyed first: ~ThreadPool drains queued deploy
  // tasks, which still use cache_ and manifests_ above.
  common::ThreadPool pool_;
};

}  // namespace xaas::service
