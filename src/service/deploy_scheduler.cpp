#include "service/deploy_scheduler.hpp"

#include "common/hashing.hpp"
#include "service/build_farm.hpp"
#include "service/distribution.hpp"
#include "service/fault.hpp"
#include "vm/decoded.hpp"

namespace xaas::service {

DeployScheduler::DeployScheduler(ShardedRegistry& registry,
                                 DeploySchedulerOptions options)
    : registry_(registry),
      options_(options),
      spec_tier_(make_artifact_tier<SpecCodec>(options.artifact_store,
                                               options.distribution)),
      pool_(options.threads) {
  cache_.set_tier(spec_tier_.get());
}

DeployScheduler::DeployScheduler(ShardedRegistry& registry, BuildFarm& farm,
                                 DeploySchedulerOptions options)
    : DeployScheduler(registry, options) {
  farm_ = &farm;
}

vm::RunResult FleetDeployResult::run(vm::Workload& workload,
                                     int threads) const {
  vm::RunResult failed;
  if (!app) {
    failed.error = "deployment has no program: " + error;
    return failed;
  }
  return app->run_on(node, workload, threads);
}

FleetDeployResult DeployScheduler::deploy(const FleetDeployRequest& request) {
  FleetDeployResult result;
  result.node_name = request.node.name;
  result.node = request.node;

  const auto digest = registry_.resolve(request.image_reference);
  if (!digest) {
    result.code = ErrorCode::NotFound;
    result.error = "image not found in registry: " + request.image_reference;
    return result;
  }
  const auto image = registry_.pull(*digest);  // shared, no layer copy

  const auto manifest = manifest_for(*digest, *image);
  const IrDeployPlan plan = plan_ir_deploy(*manifest, request.node,
                                           request.options);
  if (!plan.ok) {
    // Plan failures are deterministic (bad selection, march beyond the
    // node): not transient, retrying cannot help.
    result.code = ErrorCode::DeployFailed;
    result.error = plan.error;
    return result;
  }
  result.configuration = plan.configuration;

  SpecKey key;
  key.digest = *digest;
  key.selections = common::canonical_selections(request.options.selections);
  key.target = plan.target;

  const auto app = cache_.get_or_deploy(
      key,
      [&]() -> std::shared_ptr<const DeployedApp> {
        // Injected lowering failure: the elected deployer fails; the
        // cache never retains it (failed lowerings are not cached), so
        // the gateway's retry elects a fresh deployer.
        if (XAAS_FAULT_POINT(fault::kIrLower, key.digest)) {
          auto failed = std::make_shared<DeployedApp>();
          failed->error = "injected IR lowering fault for " + key.digest;
          return failed;
        }
        auto deployed = std::make_shared<DeployedApp>(
            deploy_ir_container(*image, request.node, request.options));
        // The cached deployment is shared by every node whose plan
        // resolves to this key, so it must not remember the node that
        // happened to deploy first: DeployedApp::run() on a cleared name
        // fails loudly instead of silently simulating the wrong node
        // (fleet callers run through FleetDeployResult::run / run_on).
        deployed->node_name.clear();
        if (deployed->ok) {
          // Decode once here; every executor on every node of the fleet
          // reuses this DecodedProgram.
          deployed->decoded = std::make_shared<const vm::DecodedProgram>(
              vm::DecodedProgram::build(deployed->program));
        }
        return deployed;
      },
      &result.cache_hit);

  result.app = app;
  result.ok = app->ok;
  if (!app->ok) {
    // The deployer (lowering or the infrastructure under it) failed; the
    // failed entry was not cached, so a retry elects a fresh deployer.
    result.code = ErrorCode::DeployFailed;
    result.transient = true;
    result.error = app->error;
  }
  return result;
}

std::shared_ptr<const IrImageManifest> DeployScheduler::manifest_for(
    const std::string& digest, const container::Image& image) {
  {
    std::lock_guard lock(manifests_mutex_);
    const auto it = manifests_.find(digest);
    if (it != manifests_.end()) return it->second;
  }
  // Parse outside the lock; concurrent first requests may both parse,
  // the map keeps whichever lands first (they are identical by digest).
  auto parsed =
      std::make_shared<const IrImageManifest>(read_ir_image_manifest(image));
  std::lock_guard lock(manifests_mutex_);
  return manifests_.emplace(digest, std::move(parsed)).first->second;
}

FleetDeployResult DeployScheduler::deploy(const MixedDeployRequest& request) {
  const auto digest = registry_.resolve(request.image_reference);
  if (!digest) {
    FleetDeployResult result;
    result.node_name = request.node.name;
    result.node = request.node;
    result.code = ErrorCode::NotFound;
    result.error = "image not found in registry: " + request.image_reference;
    return result;
  }
  const auto kind =
      registry_.annotation(*digest, container::kAnnotationKind);
  if (kind && *kind == "source") {
    if (!farm_) {
      FleetDeployResult result;
      result.node_name = request.node.name;
      result.node = request.node;
      result.code = ErrorCode::DeployFailed;
      result.error = "source image " + request.image_reference +
                     " requires a build farm (none attached)";
      return result;
    }
    SourceDeployRequest source;
    source.node = request.node;
    // Forward the digest, not the tag: the inner deploy resolves again,
    // and a concurrent retag between the two resolves must not flip the
    // request onto the wrong path (it also spares a tag lookup).
    source.image_reference = *digest;
    source.options.selections = request.selections;
    source.options.march = request.march;
    source.options.opt_level = request.opt_level;
    source.options.auto_specialize = request.auto_specialize;
    // Synchronous path: this scheduler's pool already carries the
    // fan-out; the farm contributes only its caches.
    return farm_->deploy(source);
  }
  FleetDeployRequest ir;
  ir.node = request.node;
  ir.image_reference = *digest;  // same retag race as the source path
  ir.options.selections = request.selections;
  ir.options.march = request.march;
  ir.options.opt_level = request.opt_level;
  return deploy(ir);
}

std::future<FleetDeployResult> DeployScheduler::submit(
    MixedDeployRequest request) {
  return detail::enqueue_deploy(
      pool_,
      [this, request = std::move(request)] { return deploy(request); });
}

std::vector<FleetDeployResult> DeployScheduler::deploy_batch(
    std::vector<MixedDeployRequest> requests) {
  std::vector<std::future<FleetDeployResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  return detail::collect_deploys(std::move(futures));
}

std::future<FleetDeployResult> DeployScheduler::submit(
    FleetDeployRequest request) {
  return detail::enqueue_deploy(
      pool_,
      [this, request = std::move(request)] { return deploy(request); });
}

std::vector<FleetDeployResult> DeployScheduler::deploy_batch(
    std::vector<FleetDeployRequest> requests) {
  std::vector<std::future<FleetDeployResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  return detail::collect_deploys(std::move(futures));
}

}  // namespace xaas::service
