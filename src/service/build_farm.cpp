#include "service/build_farm.hpp"

#include "common/hashing.hpp"
#include "service/distribution.hpp"
#include "service/fault.hpp"
#include "vm/decoded.hpp"

namespace xaas::service {

BuildFarm::BuildFarm(ShardedRegistry& registry, BuildFarmOptions options)
    : registry_(registry),
      options_(options),
      spec_tier_(make_artifact_tier<SpecCodec>(options.artifact_store,
                                               options.distribution)),
      tu_tier_(make_artifact_tier<TuCodec>(options.artifact_store,
                                           options.distribution)),
      pool_(options.threads) {
  cache_.set_tier(spec_tier_.get());
}

void BuildFarm::set_tu_observer(common::CacheObserver observer) {
  std::lock_guard lock(states_mutex_);
  tu_observer_ = std::move(observer);
}

std::shared_ptr<const BuildFarm::ImageState> BuildFarm::state_for(
    const std::string& digest, const container::Image& image) {
  common::CacheObserver tu_observer;
  {
    std::lock_guard lock(states_mutex_);
    const auto it = states_.find(digest);
    if (it != states_.end()) return it->second;
    tu_observer = tu_observer_;
  }
  // Reconstruct outside the lock; concurrent first requests may both
  // reconstruct, the map keeps whichever lands first (identical by
  // digest).
  auto state = std::make_shared<ImageState>();
  SourceImageApp from_image = application_from_source_image(image);
  if (from_image.ok) {
    state->app =
        std::make_shared<const Application>(std::move(from_image.app));
    state->tu_cache = std::make_shared<minicc::CompileCache>();
    if (tu_observer) state->tu_cache->set_observer(std::move(tu_observer));
    // TU keys are image-independent (post-preprocess hash pins the
    // content), so every per-image cache shares one persistent tier.
    state->tu_cache->set_tier(tu_tier_.get());
    // minicc cannot depend on the serving layer, so the fault plan is
    // bridged in via the cache's generic hook: flaky TU builds keyed by
    // source path (the k-th build attempt of one TU fails or not,
    // deterministically per seed).
    state->tu_cache->set_fault_hook(
        [](const minicc::TuKey& key) -> std::optional<std::string> {
          if (XAAS_FAULT_POINT(fault::kTuBuild, key.source)) {
            return "injected TU build fault: " + key.source;
          }
          return std::nullopt;
        });
  } else {
    state->app_error = from_image.error;
  }
  std::lock_guard lock(states_mutex_);
  return states_
      .emplace(digest, std::shared_ptr<const ImageState>(std::move(state)))
      .first->second;
}

FleetDeployResult BuildFarm::deploy(const SourceDeployRequest& request) {
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

  const auto state = state_for(*digest, *image);
  if (!state->app) {
    // Reconstruction failures are a property of the image content:
    // deterministic, retrying cannot help.
    result.code = ErrorCode::DeployFailed;
    result.error = state->app_error;
    return result;
  }
  const Application& app = *state->app;

  // The cheap, node-specific half: discovery, intersection, selection,
  // configure, target resolution. Failures never reach the caches.
  const SourceDeployPlan plan =
      plan_source_deploy(*image, app, request.node, request.options);
  if (!plan.ok) {
    // Plan failures are deterministic (bad selection, march beyond the
    // node): not transient, retrying cannot help.
    result.code = ErrorCode::DeployFailed;
    result.error = plan.error;
    return result;
  }
  result.configuration = plan.configuration.id();

  // Whole-deployment key: build_source_deploy is a pure function of
  // (source image, resolved option values, target) — the node only
  // contributed to resolving the plan.
  SpecKey key;
  key.digest = *digest;
  key.selections =
      common::canonical_selections(plan.configuration.option_values);
  key.target = plan.target;

  const auto app_ptr = cache_.get_or_deploy(
      key,
      [&]() -> std::shared_ptr<const DeployedApp> {
        auto deployed = std::make_shared<DeployedApp>(
            build_source_deploy(*image, app, plan, state->tu_cache.get()));
        if (deployed->ok) {
          deployed->decoded = std::make_shared<const vm::DecodedProgram>(
              vm::DecodedProgram::build(deployed->program));
        }
        return deployed;
      },
      &result.cache_hit);

  result.app = app_ptr;
  result.ok = app_ptr->ok;
  if (!app_ptr->ok) {
    // The build (or injected TU fault under it) failed; failed entries
    // are never cached, so a retry elects a fresh builder.
    result.code = ErrorCode::DeployFailed;
    result.transient = true;
    result.error = app_ptr->error;
  }
  return result;
}

std::future<FleetDeployResult> BuildFarm::submit(SourceDeployRequest request) {
  return detail::enqueue_deploy(
      pool_,
      [this, request = std::move(request)] { return deploy(request); });
}

std::vector<FleetDeployResult> BuildFarm::deploy_batch(
    std::vector<SourceDeployRequest> requests) {
  std::vector<std::future<FleetDeployResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  return detail::collect_deploys(std::move(futures));
}

std::size_t BuildFarm::tu_compiles() const {
  std::size_t total = 0;
  std::lock_guard lock(states_mutex_);
  for (const auto& [digest, state] : states_) {
    (void)digest;
    if (state->tu_cache) total += state->tu_cache->tu_compiles();
  }
  return total;
}

std::size_t BuildFarm::tu_cache_hits() const {
  std::size_t total = 0;
  std::lock_guard lock(states_mutex_);
  for (const auto& [digest, state] : states_) {
    (void)digest;
    if (state->tu_cache) total += state->tu_cache->tu_hits();
  }
  return total;
}

std::size_t BuildFarm::tu_disk_hits() const {
  std::size_t total = 0;
  std::lock_guard lock(states_mutex_);
  for (const auto& [digest, state] : states_) {
    (void)digest;
    if (state->tu_cache) total += state->tu_cache->tu_disk_hits();
  }
  return total;
}

}  // namespace xaas::service
